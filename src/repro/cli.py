"""Command-line interface.

Invoke as ``python -m repro`` (or the ``repro-hls`` console script):

* ``repro-hls table1`` / ``table2`` — regenerate the paper's tables;
* ``repro-hls figure1`` / ``figure2`` — regenerate the figures;
* ``repro-hls baselines`` — the §6 scheduler-quality comparison;
* ``repro-hls schedule design.beh --cs 6`` — run MFS on a behavioral file;
* ``repro-hls synth design.beh --cs 6 --verilog out.v`` — run MFSA and
  emit the RTL structure;
* ``repro-hls trace design.beh`` — run MFS/MFSA with the
  :mod:`repro.trace` recorder attached, write the JSONL event stream and
  a markdown run report, and exit 1 if the replayed Liapunov descent
  fails the :mod:`repro.check` audit;
* ``repro-hls check`` — audit the paper examples (and optionally random
  DFGs) against the :mod:`repro.check` invariants; exit 1 on violation;
* ``repro-hls serve`` — run the batching, cache-fronted synthesis
  service (:mod:`repro.serve`); SIGTERM drains gracefully;
* ``repro-hls submit design.beh --cs 6`` — submit a job to a running
  service and print the result.

Every subcommand's ``--help`` cites the paper section it reproduces
(``tests/test_cli_help.py`` keeps the citations and wording pinned).

Behavioral files use the :mod:`repro.dfg.parser` language.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, Optional

from repro.dfg.analysis import TimingModel, critical_path_length
from repro.dfg.ops import standard_operation_set
from repro.dfg.parser import parse_behavior
from repro.errors import ReproError
from repro.core.mfs import MFSScheduler
from repro.core.mfsa import MFSAScheduler
from repro.library.ncr import datapath_library
from repro.io.text import render_datapath, render_schedule
from repro.perf import PerfCounters


def _load_dfg(path: str):
    """The design in the behavioral file ``path``, named by the file's
    stem, so output does not depend on how the path was spelled."""
    stem = os.path.splitext(os.path.basename(path))[0]
    with open(path) as handle:
        return parse_behavior(handle.read(), name=stem)


def _timing(args) -> TimingModel:
    mul_latency = 1 if args.mul_latency is None else args.mul_latency
    ops = standard_operation_set(mul_latency=mul_latency)
    return TimingModel(ops=ops, clock_period_ns=args.clock_ns)


def _resolve_design(args):
    """The (dfg, timing) a schedule/synth invocation operates on.

    Exactly one of the positional FILE or ``--generate SPEC`` must be
    given.  A generated design takes its timing knobs (multiplier
    latency, chaining clock) from the spec; explicit ``--mul-latency``
    / ``--clock-ns`` flags override them.
    """
    if (args.file is None) == (not args.generate):
        raise SystemExit(
            "pass exactly one of FILE or --generate '<spec>'"
        )
    if not args.generate:
        return _load_dfg(args.file), _timing(args)
    from repro.scenarios.generator import (
        generate_dfg,
        parse_generator_spec,
        with_seeded_name,
    )

    spec = parse_generator_spec(args.generate)
    dfg = generate_dfg(spec, args.seed, name=with_seeded_name(spec, args.seed))
    mul_latency = (
        spec.mul_latency if args.mul_latency is None else args.mul_latency
    )
    clock_ns = args.clock_ns if args.clock_ns is not None else spec.clock_ns
    timing = TimingModel(
        ops=standard_operation_set(mul_latency=mul_latency),
        clock_period_ns=clock_ns,
    )
    return dfg, timing


def _make_perf(args) -> Optional[PerfCounters]:
    return PerfCounters() if getattr(args, "perf", False) else None


def _print_perf(perf: Optional[PerfCounters]) -> None:
    """Emit counters to stderr so machine-readable stdout stays clean."""
    if perf is not None:
        print(perf.render(), file=sys.stderr)


def _add_perf_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--perf",
        action="store_true",
        help="print performance counters (candidates evaluated, cache hit "
        "rates, phase timings) to stderr",
    )


def _add_sweep_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--parallel",
        action="store_true",
        help="fan the sweep out over a process pool (serial fallback on "
        "single-core machines)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process-pool worker count (default: CPU count)",
    )


def _backend(args) -> str:
    return "auto" if getattr(args, "parallel", False) else "serial"


def _add_verify_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--verify",
        action="store_true",
        help="audit the result with repro.check before emitting anything "
        "(raises on any invariant violation)",
    )


def _add_generate_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--generate",
        metavar="SPEC",
        default=None,
        help="generate the design from a seeded scenario spec instead of "
        "a file, e.g. 'random:ops=24:mix=mul*3+add:cond=2' (see "
        "docs/SCENARIOS.md); reproduces any scenario DFG standalone",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="generator seed for --generate (default 0)",
    )


def _add_timing_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--mul-latency",
        type=int,
        default=None,
        help="multiplier latency in control steps (default 1, or the "
        "design's own for --generate and --example)",
    )
    parser.add_argument(
        "--clock-ns",
        type=float,
        default=None,
        help="clock period in ns; enables operation chaining",
    )


def _command_table1(args) -> int:
    from repro.bench.table1 import render_table1, table1_rows

    keys = [args.example] if args.example else None
    print(render_table1(table1_rows(keys=keys, checkpoint=args.checkpoint)))
    return 0


def _command_table2(args) -> int:
    from repro.bench.table2 import render_table2, table2_rows

    keys = [args.example] if args.example else None
    print(render_table2(table2_rows(keys=keys, checkpoint=args.checkpoint)))
    return 0


def _command_figure(args, which: int) -> int:
    from repro.bench.figures import figure1, figure2

    renderer = figure1 if which == 1 else figure2
    print(renderer(args.example or "ex3"))
    return 0


def _command_baselines(_args) -> int:
    from repro.bench.baselines import compare_methods, render_baselines

    print(render_baselines(compare_methods()))
    return 0


def _command_schedule(args) -> int:
    dfg, timing = _resolve_design(args)
    cs = args.cs or critical_path_length(dfg, timing)
    perf = _make_perf(args)
    scheduler = MFSScheduler(
        dfg,
        timing,
        cs=cs,
        mode="time",
        latency_l=args.latency_l,
        pipelined_kinds=tuple(args.pipelined.split(",")) if args.pipelined else (),
        verify=args.verify,
        perf=perf,
        kernel=args.kernel,
    )
    result = scheduler.run()
    _print_perf(perf)
    if args.json:
        from repro.io.jsonio import schedule_to_json

        print(schedule_to_json(result.schedule))
    elif args.dot:
        from repro.io.dot import schedule_to_dot

        print(schedule_to_dot(result.schedule))
    else:
        print(render_schedule(result.schedule))
    if args.svg:
        from repro.io.svg import schedule_to_svg

        binding = {
            name: (pos.table, pos.x)
            for name, pos in result.placements.items()
        }
        with open(args.svg, "w") as handle:
            handle.write(schedule_to_svg(result.schedule, binding=binding))
        print(f"wrote {args.svg}", file=sys.stderr)
    return 0


def _command_explore(args) -> int:
    from repro.explore import design_space, knee_point, pareto_front, render_design_space
    from repro.library.ncr import datapath_library

    dfg = _load_dfg(args.file)
    timing = _timing(args)
    budgets = (
        [int(v) for v in args.budgets.split(",")] if args.budgets else None
    )
    perf = _make_perf(args)
    trace = None
    if args.trace:
        from repro.trace import TraceRecorder

        trace = TraceRecorder()
    points = design_space(
        dfg,
        timing,
        datapath_library(),
        budgets=budgets,
        style=args.style,
        backend=_backend(args),
        workers=args.workers,
        perf=perf,
        trace=trace,
        checkpoint=args.checkpoint,
    )
    print(render_design_space(points))
    if trace is not None:
        trace.write_jsonl(args.trace)
        print(f"wrote {args.trace}", file=sys.stderr)
    _print_perf(perf)
    knee = knee_point(pareto_front(points))
    if knee is not None:
        print(f"knee: T={knee.cs}, area {knee.total_area:.0f} um^2")
    return 0


def _command_synth(args) -> int:
    dfg, timing = _resolve_design(args)
    cs = args.cs or critical_path_length(dfg, timing)
    perf = _make_perf(args)
    scheduler = MFSAScheduler(
        dfg,
        timing,
        datapath_library(),
        cs=cs,
        style=args.style,
        verify=args.verify,
        perf=perf,
    )
    result = scheduler.run()
    _print_perf(perf)
    if args.json:
        from repro.io.jsonio import synthesis_to_json

        print(synthesis_to_json(result))
    else:
        print(render_datapath(result.datapath))
    if args.verilog:
        if args.structural:
            from repro.rtl.structural import emit_structural_verilog as emitter
        else:
            from repro.rtl.verilog import emit_verilog as emitter

        with open(args.verilog, "w") as handle:
            handle.write(emitter(result.datapath, module_name=args.module))
        print(f"wrote {args.verilog}", file=sys.stderr)
    if args.testbench:
        from repro.rtl.testbench import emit_testbench

        vectors = [_parse_inputs(args.inputs, dfg.inputs)]
        with open(args.testbench, "w") as handle:
            handle.write(
                emit_testbench(
                    result.datapath, vectors, module_name=args.module
                )
            )
        print(f"wrote {args.testbench}", file=sys.stderr)
    if args.vcd:
        from repro.sim.executor import execute_datapath
        from repro.sim.vcd import write_vcd

        inputs = _parse_inputs(args.inputs, dfg.inputs)
        trace = execute_datapath(result.datapath, inputs)
        write_vcd(args.vcd, result.datapath, trace)
        print(f"wrote {args.vcd}", file=sys.stderr)
    return 0


def _command_check(args) -> int:
    from repro.check import check_all_examples, check_random_dfgs

    differential = not args.no_differential
    reports = check_all_examples(
        keys=[args.example] if args.example else None,
        differential=differential,
    )
    if args.random:
        reports.append(
            check_random_dfgs(
                count=args.random,
                seed=args.seed,
                differential=differential,
            )
        )
    if args.kernels:
        from repro.check import check_kernels_all_examples, check_kernels_random

        reports.append(
            check_kernels_all_examples(
                keys=[args.example] if args.example else None
            )
        )
        if args.random:
            reports.append(
                check_kernels_random(count=args.random, seed=args.seed)
            )
    failed = False
    for report in reports:
        print(report.render())
        failed = failed or not report.ok
    return 1 if failed else 0


def _command_trace(args) -> int:
    from repro.trace import trace_run

    dfg = _load_dfg(args.file)
    timing = _timing(args)
    run = trace_run(
        dfg,
        timing,
        scheduler=args.scheduler,
        cs=args.cs,
        style=args.style,
        latency_l=args.latency_l,
        pipelined_kinds=tuple(args.pipelined.split(",")) if args.pipelined else (),
    )
    jsonl_path = args.jsonl or f"{stem}.trace.jsonl"
    report_path = args.report or f"{stem}.report.md"
    with open(jsonl_path, "w") as handle:
        handle.write(run.jsonl)
    with open(report_path, "w") as handle:
        handle.write(run.report)
    print(f"wrote {jsonl_path}", file=sys.stderr)
    print(f"wrote {report_path}", file=sys.stderr)
    events = run.jsonl.count("\n")
    commits = len(run.result.trajectory)
    verdict = "OK" if run.ok else f"{len(run.violations)} violation(s)"
    print(
        f"{args.scheduler} on {dfg.name}: {events} events, "
        f"{commits} commits, replayed descent {verdict}"
    )
    if not run.ok:
        for violation in run.violations:
            print(f"  {violation.code} {violation.subject}: "
                  f"{violation.message}", file=sys.stderr)
        return 1
    return 0


def _command_serve(args) -> int:
    from repro.serve import ServeApp, ServeConfig

    if args.shards is not None:
        return _command_serve_sharded(args)
    config = ServeConfig(
        host=args.host,
        port=args.port,
        queue_size=args.queue_size,
        max_batch=args.max_batch,
        workers=args.workers,
        backend="serial" if args.serial else "auto",
        cache_entries=args.cache_entries,
        default_timeout_s=args.timeout,
        state_dir=args.state_dir,
        port_file=args.port_file,
        faults=args.faults,
        fault_seed=args.fault_seed,
    )
    return ServeApp(config).serve_forever()


def _command_serve_sharded(args) -> int:
    from repro.serve import RouterConfig, ShardRouter

    # Tuning knobs are forwarded verbatim to every worker shard; the
    # router itself only needs the fleet-level settings.
    shard_args = [
        "--queue-size", str(args.queue_size),
        "--max-batch", str(args.max_batch),
        "--cache-entries", str(args.cache_entries),
        "--timeout", str(args.timeout),
    ]
    if args.workers is not None:
        shard_args += ["--workers", str(args.workers)]
    if args.serial:
        shard_args.append("--serial")
    if args.faults:
        shard_args += ["--faults", args.faults,
                       "--fault-seed", str(args.fault_seed)]
    config = RouterConfig(
        host=args.host,
        port=args.port,
        shards=args.shards,
        state_dir=args.state_dir,
        cache_entries=args.cache_entries,
        forward_timeout_s=args.timeout + 60.0,
        shard_args=tuple(shard_args),
        port_file=args.port_file,
        # One --faults spelling arms both tiers: router-side rules
        # (router.forward) fire here, shard-side rules in each shard.
        faults=args.faults,
        fault_seed=args.fault_seed,
    )
    return ShardRouter(config).serve_forever()


def _command_serve_admin(args) -> int:
    import json

    from repro.serve.client import Client, ServiceError

    client = Client(args.url, timeout=args.timeout, retries=0)
    try:
        if args.action == "status":
            payload = client.admin_status()
        elif args.action == "add":
            payload = client.admin_add_shard()
        else:
            if not args.shard:
                print("serve-admin remove requires --shard", file=sys.stderr)
                return 2
            payload = client.admin_remove_shard(args.shard)
    except ServiceError as error:
        print(f"serve-admin {args.action} failed: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"cannot reach {args.url}: {error}", file=sys.stderr)
        return 1
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _command_submit(args) -> int:
    import json

    from repro.serve.client import Client, ServiceError
    from repro.serve.jobs import response_text

    if (args.file is None) == (args.example is None):
        print(
            "submit: pass exactly one of FILE or --example",
            file=sys.stderr,
        )
        return 2
    params: Dict[str, object] = {
        "mul_latency": args.mul_latency,
        "seed": args.seed,
    }
    if args.example is not None:
        from repro.bench.suites import EXAMPLES
        from repro.io.jsonio import dfg_to_json

        spec = EXAMPLES[args.example]
        design = {"dfg": json.loads(dfg_to_json(spec.build()))}
        params["cs"] = args.cs or spec.mfsa_cs
        if args.mul_latency is None:
            params["mul_latency"] = spec.mfsa_mul_latency
        params["clock_ns"] = (
            args.clock_ns if args.clock_ns is not None else spec.mfsa_clock_ns
        )
    else:
        with open(args.file) as handle:
            design = {"source": handle.read(), "name": args.file}
        if args.cs:
            params["cs"] = args.cs
        params["clock_ns"] = args.clock_ns
    if args.latency_l:
        params["latency_l"] = args.latency_l
    if args.pipelined:
        params["pipelined"] = args.pipelined.split(",")
    if args.algorithm == "mfsa":
        params["style"] = args.style
    params = {key: value for key, value in params.items() if value is not None}

    client = Client(args.url, timeout=args.timeout + 30.0, retries=args.retries)
    submit = client.schedule if args.algorithm == "mfs" else client.synth
    try:
        out = submit(
            wait=True,
            verify=args.verify,
            trace=args.trace,
            timeout=args.timeout,
            **design,
            **params,
        )
    except ServiceError as error:
        print(f"submit: {error}", file=sys.stderr)
        return 1
    job = out["job"]
    print(
        f"{job['id']}: {job['status']} ({job['cache']}, "
        f"{job.get('total_seconds', 0.0):.3f}s)",
        file=sys.stderr,
    )
    if args.raw:
        print(client.result_text(job["id"]), end="")
    else:
        print(response_text(out["result"]), end="")
    return 0 if out["result"].get("ok") else 1


def _command_scenarios_run(args) -> int:
    from repro.scenarios import (
        failing_results,
        load_config,
        render_grid,
        run_matrix,
        save_reproducer,
        shrink_scenario,
        write_grid,
    )

    config = load_config(args.config)
    perf = _make_perf(args)
    for artifact in (args.grid, args.checkpoint):
        if artifact and os.path.dirname(artifact):
            os.makedirs(os.path.dirname(artifact), exist_ok=True)
    run = run_matrix(
        config,
        backend=_backend(args),
        workers=args.workers,
        checkpoint_path=args.checkpoint,
        perf=perf,
    )
    print(render_grid(run))
    _print_perf(perf)
    if args.grid:
        write_grid(run, args.grid)
        print(f"wrote {args.grid}", file=sys.stderr)

    failures = failing_results(run)
    shrunk_ok = True
    if failures and args.corpus_dir:
        os.makedirs(args.corpus_dir, exist_ok=True)
        for scenario, _result in failures:
            try:
                reduced = shrink_scenario(scenario)
            except Exception as error:
                print(
                    f"shrink failed for {scenario['id']}: {error}",
                    file=sys.stderr,
                )
                shrunk_ok = False
                continue
            path = os.path.join(
                args.corpus_dir, f"reproducer-{scenario['id']}.json"
            )
            save_reproducer(reduced, path)
            print(
                f"shrunk {scenario['id']}: {reduced.original_ops} -> "
                f"{reduced.n_ops} ops, wrote {path}",
                file=sys.stderr,
            )
    if args.expect_fail:
        # CI defect runs: the matrix must fail AND every failure must
        # have shrunk to a corpus reproducer.
        return 0 if failures and shrunk_ok else 1
    return 1 if failures else 0


def _command_scenarios_replay(args) -> int:
    import json as json_module

    from repro.scenarios import parse_arrival_spec, run_replay

    pattern = parse_arrival_spec(args.arrivals)
    report = run_replay(
        pattern,
        seed=args.seed,
        generator=args.generate,
        algorithm=args.algorithm,
        shards=args.shards or 0,
        faults=args.faults,
        fault_seed=args.fault_seed,
        time_scale=args.time_scale,
        open_loop=args.open_loop,
        max_in_flight=args.max_in_flight,
    )
    print(report.render())
    if args.report:
        import os

        if os.path.dirname(args.report):
            os.makedirs(os.path.dirname(args.report), exist_ok=True)
        payload = dict(
            report.deterministic_payload(),
            latency_ms=report.latency_summary_ms(),
            wall_seconds=report.wall_seconds,
        )
        with open(args.report, "w") as handle:
            json_module.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.report}", file=sys.stderr)
    return 1 if report.errors else 0


def _command_scenarios_shrink(args) -> int:
    import json as json_module
    import os

    from repro.scenarios import save_reproducer, shrink_scenario

    with open(args.grid) as handle:
        payload = json_module.load(handle)
    if payload.get("format") != "repro-scenario-grid":
        print(f"{args.grid} is not a scenario grid", file=sys.stderr)
        return 2
    failing = [
        scenario
        for scenario, result in zip(
            payload["scenarios"], payload["results"]
        )
        if not result["ok"] and (not args.id or scenario["id"] == args.id)
    ]
    if not failing:
        print("nothing to shrink: no matching failures", file=sys.stderr)
        return 0
    os.makedirs(args.out_dir, exist_ok=True)
    status = 0
    for scenario in failing:
        try:
            reduced = shrink_scenario(scenario)
        except Exception as error:
            print(
                f"shrink failed for {scenario['id']}: {error}",
                file=sys.stderr,
            )
            status = 1
            continue
        path = os.path.join(
            args.out_dir, f"reproducer-{scenario['id']}.json"
        )
        save_reproducer(reduced, path)
        print(
            f"{scenario['id']}: {reduced.original_ops} -> {reduced.n_ops} "
            f"ops ({reduced.rounds} rounds), wrote {path}"
        )
    return status


def _command_scenarios(args) -> int:
    if args.scenarios_command == "run":
        return _command_scenarios_run(args)
    if args.scenarios_command == "replay":
        return _command_scenarios_replay(args)
    return _command_scenarios_shrink(args)


def _parse_inputs(spec: Optional[str], names) -> Dict[str, int]:
    values = {name: 0 for name in names}
    if spec:
        for pair in spec.split(","):
            name, _eq, value = pair.partition("=")
            values[name.strip()] = int(value)
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-hls",
        description="Move Frame Scheduling / MFSA high-level synthesis "
        "(reproduction of Nourani & Papachristou, DAC 1992)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, helptext in (
        ("table1", "regenerate the paper's Table 1 — MFS results (§6)"),
        ("table2", "regenerate the paper's Table 2 — MFSA results (§6)"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--example", choices=[f"ex{i}" for i in range(1, 7)])
        p.add_argument(
            "--checkpoint",
            help="resume file: completed rows are durably recorded and an "
            "interrupted regeneration picks up where it stopped",
        )

    for which, detail in (
        (1, "a move frame and its Liapunov argmin (§2.2)"),
        (2, "the PF/RF/FF frames of one operation (§3.2)"),
    ):
        p = sub.add_parser(
            f"figure{which}",
            help=f"regenerate the paper's Figure {which} — {detail}",
        )
        p.add_argument("--example", choices=[f"ex{i}" for i in range(1, 7)])

    sub.add_parser("baselines", help="scheduler quality comparison (§6)")

    p = sub.add_parser(
        "report",
        help="regenerate every paper artifact into one document (§6)",
    )
    p.add_argument("--out", help="write Markdown here (default: stdout)")
    p.add_argument(
        "--no-runtimes",
        action="store_true",
        help="skip the (slow) runtime measurements",
    )
    _add_sweep_arguments(p)
    _add_perf_argument(p)

    p = sub.add_parser(
        "schedule",
        help="run move frame scheduling (MFS, §3) on a behavioral file "
        "or a generated scenario design",
    )
    p.add_argument("file", nargs="?",
                   help="behavioral design file (or use --generate)")
    _add_generate_arguments(p)
    p.add_argument("--cs", type=int, help="time constraint (default: critical path)")
    p.add_argument("--latency-l", type=int, default=None,
                   help="functional-pipelining initiation interval")
    p.add_argument("--pipelined", default="",
                   help="comma-separated structurally pipelined kinds")
    p.add_argument("--json", action="store_true", help="JSON output")
    p.add_argument("--dot", action="store_true", help="Graphviz output")
    p.add_argument("--svg", help="write a Gantt chart SVG to this path")
    p.add_argument(
        "--kernel",
        choices=["auto", "scalar", "vector"],
        default="auto",
        help="move-frame walk: 'vector' prices numpy frame masks, "
        "'scalar' walks positions in python, 'auto' picks one per "
        "operation (vector for the large frames of large designs); "
        "results are byte-identical either way",
    )
    _add_verify_argument(p)
    _add_timing_arguments(p)
    _add_perf_argument(p)

    p = sub.add_parser(
        "explore",
        help="latency/area design-space sweep over MFSA runs (§4, §6)",
    )
    p.add_argument("file")
    p.add_argument(
        "--budgets", help="comma-separated time budgets (default: auto ladder)"
    )
    p.add_argument("--style", type=int, choices=[1, 2], default=1)
    p.add_argument(
        "--trace",
        help="write the merged per-budget decision trace (JSONL) here",
    )
    p.add_argument(
        "--checkpoint",
        help="resume file: completed budgets are durably recorded and an "
        "interrupted sweep picks up where it stopped",
    )
    _add_timing_arguments(p)
    _add_sweep_arguments(p)
    _add_perf_argument(p)

    p = sub.add_parser(
        "check",
        help="audit schedule/Liapunov/allocation invariants on the paper "
        "examples (§2.2, §3.2)",
    )
    p.add_argument(
        "--example",
        choices=[f"ex{i}" for i in range(1, 7)],
        help="audit just one example (default: all six)",
    )
    p.add_argument(
        "--random",
        type=int,
        default=0,
        metavar="N",
        help="additionally audit N randomly generated DFGs",
    )
    p.add_argument(
        "--seed", type=int, default=0, help="seed for --random workloads"
    )
    p.add_argument(
        "--kernels",
        action="store_true",
        help="additionally cross-validate MFS's scalar and vector walks, "
        "and MFSA's bounded default run against its whole-frame run, "
        "byte-for-byte (see repro.check.kernels)",
    )
    p.add_argument(
        "--no-differential",
        action="store_true",
        help="skip the cross-validation against baseline schedulers",
    )

    p = sub.add_parser(
        "synth",
        help="run mixed scheduling-allocation (MFSA, §4) on a behavioral "
        "file or a generated scenario design",
    )
    p.add_argument("file", nargs="?",
                   help="behavioral design file (or use --generate)")
    _add_generate_arguments(p)
    p.add_argument("--cs", type=int)
    p.add_argument("--style", type=int, choices=[1, 2], default=1)
    p.add_argument("--verilog", help="write Verilog to this path")
    p.add_argument(
        "--structural",
        action="store_true",
        help="emit the fully structural design (shared ALUs, real muxes)",
    )
    p.add_argument(
        "--testbench",
        help="write a self-checking testbench (uses --inputs as the vector)",
    )
    p.add_argument("--module", default="datapath", help="Verilog module name")
    p.add_argument("--vcd", help="simulate and write a VCD waveform")
    p.add_argument("--inputs", help="simulation inputs, e.g. a=3,b=5")
    p.add_argument("--json", action="store_true")
    _add_verify_argument(p)
    _add_timing_arguments(p)
    _add_perf_argument(p)

    p = sub.add_parser(
        "serve",
        help="run the synthesis service: JSON-over-HTTP MFS (§3) / MFSA "
        "(§4) with a content-addressed result cache, bounded queue "
        "(429 on overload) and micro-batched dispatch; SIGTERM drains",
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument("--port", type=int, default=8421,
                   help="bind port (0 picks an ephemeral port)")
    p.add_argument("--shards", type=int, default=None,
                   help="spawn N worker-shard subprocesses behind a "
                   "consistent-hash router (default: single process)")
    p.add_argument("--port-file", default=None,
                   help="write the bound port to this file once up "
                   "(how the shard router finds its workers)")
    p.add_argument("--queue-size", type=int, default=64,
                   help="bounded queue capacity before 429s (default 64)")
    p.add_argument("--max-batch", type=int, default=8,
                   help="most jobs dispatched as one batch: those queued "
                   "behind a running batch (default 8)")
    p.add_argument("--workers", type=int, default=None,
                   help="process-pool worker count (default: CPU count)")
    p.add_argument("--serial", action="store_true",
                   help="execute batches in-process (no pool)")
    p.add_argument("--cache-entries", type=int, default=1024,
                   help="result-cache capacity, LRU beyond (default 1024)")
    p.add_argument("--timeout", type=float, default=60.0,
                   help="default per-job timeout in seconds (default 60)")
    p.add_argument("--state-dir", default=None,
                   help="directory for the write-ahead job journal; a "
                   "restarted server replays unfinished jobs from it "
                   "(with --shards, each shard journals under shard-<i>/)")
    p.add_argument("--faults", default=None,
                   help="fault-injection plan, e.g. "
                   "'serve.cache.put:n=2,sweep.submit:p=0.25:times=3' "
                   "(chaos testing)")
    p.add_argument("--fault-seed", type=int, default=0,
                   help="seed for probabilistic fault triggers")

    p = sub.add_parser(
        "serve-admin",
        help="administer a running sharded MFS (§3) / MFSA (§4) fleet: "
        "show ring membership, or grow/drain a worker shard online "
        "(zero-downtime reshard: boot or drain plus a ring flip)",
    )
    p.add_argument(
        "action",
        choices=["status", "add", "remove"],
        help="status = ring + per-shard state, add = boot one shard and "
        "put it on the ring, remove = drain a shard out of the fleet",
    )
    p.add_argument("--url", default="http://127.0.0.1:8421",
                   help="router base URL")
    p.add_argument("--shard", default=None,
                   help="shard name to remove (required for 'remove')")
    p.add_argument("--timeout", type=float, default=120.0,
                   help="admin request timeout in seconds — covers shard "
                   "boot or drain (default 120)")

    p = sub.add_parser(
        "submit",
        help="submit one MFS (§3) / MFSA (§4) job to a running service "
        "and print the result",
    )
    p.add_argument("file", nargs="?", help="behavioral design file")
    p.add_argument(
        "--example",
        choices=[f"ex{i}" for i in range(1, 7)],
        help="submit one of the paper's examples instead of a file",
    )
    p.add_argument("--url", default="http://127.0.0.1:8421",
                   help="service base URL")
    p.add_argument(
        "--algorithm",
        choices=["mfs", "mfsa"],
        default="mfsa",
        help="mfs = scheduling only, mfsa = scheduling-allocation "
        "(default mfsa)",
    )
    p.add_argument("--cs", type=int, help="time constraint (default: critical path)")
    p.add_argument("--style", type=int, choices=[1, 2], default=1)
    p.add_argument("--latency-l", type=int, default=None,
                   help="functional-pipelining initiation interval")
    p.add_argument("--pipelined", default="",
                   help="comma-separated structurally pipelined kinds")
    p.add_argument("--seed", type=int, default=0,
                   help="cache-partition seed (results are deterministic)")
    p.add_argument("--verify", action="store_true",
                   help="audit the result with repro.check on the server")
    p.add_argument("--trace", action="store_true",
                   help="attach the repro.trace JSONL artifact to the result")
    p.add_argument("--raw", action="store_true",
                   help="print the raw canonical result bytes")
    p.add_argument("--timeout", type=float, default=60.0,
                   help="per-job timeout in seconds (default 60)")
    p.add_argument("--retries", type=int, default=3,
                   help="transport retries with exponential backoff when "
                   "the service is restarting or sheds load (default 3)")
    _add_timing_arguments(p)

    p = sub.add_parser(
        "scenarios",
        help="seeded scenario engine over the §3/§4 schedulers: expand a "
        "generator × scheduler matrix, replay seeded traffic against a "
        "live service under fault injection, and shrink failures to "
        "minimal DFG reproducers",
    )
    scsub = p.add_subparsers(dest="scenarios_command", required=True)

    sp = scsub.add_parser(
        "run",
        help="expand a matrix config and run every scenario through the "
        "checkpointed sweep, auditing each result",
    )
    sp.add_argument("config",
                    help="matrix config file (.json anywhere, .toml on "
                    "Python 3.11+)")
    sp.add_argument("--grid", help="write the pass/fail grid JSON here")
    sp.add_argument(
        "--checkpoint",
        help="resume file: completed scenarios are durably recorded and "
        "an interrupted matrix picks up where it stopped",
    )
    sp.add_argument(
        "--corpus-dir",
        help="shrink every failing scenario into this directory of "
        "minimal DFG reproducers",
    )
    sp.add_argument(
        "--expect-fail",
        action="store_true",
        help="CI defect mode: exit 0 only if the matrix HAS failures and "
        "all of them shrank to corpus reproducers",
    )
    _add_sweep_arguments(sp)
    _add_perf_argument(sp)

    sp = scsub.add_parser(
        "replay",
        help="drive a live serve instance (optionally sharded) with a "
        "seeded arrival process while a fault plan fires",
    )
    sp.add_argument(
        "--arrivals",
        default="poisson:n=20:rate=100",
        help="arrival pattern: poisson:n=..:rate=.., "
        "burst:n=..:size=..:gap=.., ramp:n=..:rate=..:peak=.. "
        "(default poisson:n=20:rate=100)",
    )
    sp.add_argument("--seed", type=int, default=0,
                    help="seed for arrivals and generated designs")
    sp.add_argument(
        "--generate",
        metavar="SPEC",
        default="random:ops=12",
        help="generator spec for the submitted designs "
        "(default random:ops=12)",
    )
    sp.add_argument(
        "--algorithm",
        choices=["schedule", "synth"],
        default="schedule",
        help="endpoint to drive (default schedule)",
    )
    sp.add_argument("--shards", type=int, default=None,
                    help="boot a sharded fleet with N worker shards "
                    "(default: single in-process service)")
    sp.add_argument("--faults", default=None,
                    help="fault plan armed in the service, e.g. "
                    "'serve.admit:n=3' (router.forward with --shards)")
    sp.add_argument("--fault-seed", type=int, default=0,
                    help="seed for probabilistic fault triggers")
    sp.add_argument("--time-scale", type=float, default=0.0,
                    help="pace submissions by arrival offsets x this "
                    "factor (0 = closed-loop, as fast as possible)")
    sp.add_argument("--open-loop", action="store_true",
                    help="submit at the arrival pace with concurrent "
                    "in-flight jobs instead of one at a time "
                    "(true load testing)")
    sp.add_argument("--max-in-flight", type=int, default=8,
                    help="with --open-loop: concurrent in-flight job "
                    "bound (default 8)")
    sp.add_argument("--report", help="write the replay report JSON here")

    sp = scsub.add_parser(
        "shrink",
        help="delta-debug failing scenarios from a pass/fail grid down "
        "to minimal DFG reproducers",
    )
    sp.add_argument("grid", help="pass/fail grid JSON from 'scenarios run'")
    sp.add_argument("--id", help="shrink only this scenario id")
    sp.add_argument(
        "--out-dir",
        default="scenario-corpus",
        help="directory for reproducer corpus files "
        "(default scenario-corpus)",
    )

    p = sub.add_parser(
        "trace",
        help="run one traced MFS/MFSA pass: record every frame, candidate "
        "energy and commit (§2.2, §3.2, §4.1), write the JSONL event "
        "stream plus a markdown run report, and replay-audit the descent",
    )
    p.add_argument("file")
    p.add_argument(
        "--scheduler",
        choices=["mfsa", "mfs"],
        default="mfsa",
        help="which scheduler to trace (default: mfsa)",
    )
    p.add_argument("--cs", type=int, help="time constraint (default: critical path)")
    p.add_argument("--style", type=int, choices=[1, 2], default=1)
    p.add_argument("--latency-l", type=int, default=None,
                   help="functional-pipelining initiation interval")
    p.add_argument("--pipelined", default="",
                   help="comma-separated structurally pipelined kinds")
    p.add_argument(
        "--jsonl",
        help="event-stream output path (default: <design>.trace.jsonl)",
    )
    p.add_argument(
        "--report",
        help="run-report output path (default: <design>.report.md)",
    )
    _add_timing_arguments(p)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except ReproError as error:
        # Input the library refuses (a malformed design, a cs below the
        # critical path) gets one line; any other exception is a bug
        # and keeps its traceback.
        print(f"repro-hls: {type(error).__name__}: {error}", file=sys.stderr)
        return 1


def _run(args) -> int:
    if args.command == "table1":
        return _command_table1(args)
    if args.command == "table2":
        return _command_table2(args)
    if args.command == "figure1":
        return _command_figure(args, 1)
    if args.command == "figure2":
        return _command_figure(args, 2)
    if args.command == "baselines":
        return _command_baselines(args)
    if args.command == "report":
        from repro.bench.report import generate_report, write_report

        perf = _make_perf(args)
        backend = _backend(args)
        kwargs = dict(
            include_runtimes=not args.no_runtimes,
            backend=backend,
            workers=args.workers,
            perf=perf,
        )
        if args.out:
            write_report(args.out, **kwargs)
            print(f"wrote {args.out}", file=sys.stderr)
        else:
            print(generate_report(**kwargs))
        _print_perf(perf)
        return 0
    if args.command == "schedule":
        return _command_schedule(args)
    if args.command == "explore":
        return _command_explore(args)
    if args.command == "synth":
        return _command_synth(args)
    if args.command == "check":
        return _command_check(args)
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "serve-admin":
        return _command_serve_admin(args)
    if args.command == "submit":
        return _command_submit(args)
    if args.command == "scenarios":
        return _command_scenarios(args)
    if args.command == "trace":
        return _command_trace(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
