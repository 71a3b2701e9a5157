"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``        — package, registry and calibration summary.
``stream``      — run the STREAM memory benchmark.
``compress``    — compress/roundtrip one dataset field, print the quality row.
``pipelines``   — hZ-dynamic pipeline mix for one dataset (Table V row).
``scaling``     — Figure 10/12 speedup curves from the cost model.
``stacking``    — the image-stacking demo (Table VII / Figure 13 shapes).
``chaos``       — run one collective under a seeded fault plan.
``bench-kernels`` — kernel perf harness; emits/compares BENCH_kernels.json.
``tune``        — schedule autotuner: grid sweep into a persisted tuning
                  table; ``show``/``diff`` to inspect tables.
``mp``          — multi-process data plane: ``run`` one schedule family on
                  real OS processes (verified bit-identical against the
                  simulator), ``calibrate`` to fit measured makespans back
                  into the α–β cost model (emits BENCH_mp.json).
``trace``       — observability: export (Chrome/CSV/schema-v2 JSON),
                  summary, and diff of collective traces.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

__all__ = ["main", "build_parser"]

#: kept in sync with ``repro.bench.mp.FAMILIES`` (asserted by the test
#: suite) so building the parser never imports the bench stack
_MP_FAMILIES = (
    "ring-rs",
    "ring-rs-hz",
    "ring-rs-doc",
    "pipelined-rs",
    "rabenseifner",
    "direct-reduce",
    "batched-reduce",
    "bcast",
    "gather",
    "hierarchical",
    "hierarchical-hz",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="hZCCL (SC'24) reproduction — homomorphic-compression collectives",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="package / registry / calibration summary")

    p = sub.add_parser("stream", help="STREAM memory-bandwidth benchmark")
    p.add_argument("--elements", type=int, default=20_000_000)
    p.add_argument("--repeats", type=int, default=5)

    p = sub.add_parser("compress", help="compress one synthetic dataset field")
    p.add_argument("dataset", choices=["sim1", "sim2", "nyx", "cesm", "hurricane"])
    p.add_argument("--rel-eb", type=float, default=1e-3)
    p.add_argument("--scale", type=float, default=0.02)
    p.add_argument("--baseline", action="store_true", help="also run ompSZp")

    p = sub.add_parser("pipelines", help="hZ-dynamic pipeline mix (Table V row)")
    p.add_argument("dataset", choices=["sim1", "sim2", "nyx", "cesm", "hurricane"])
    p.add_argument("--rel-eb", type=float, default=1e-3)
    p.add_argument("--scale", type=float, default=0.02)

    p = sub.add_parser("scaling", help="Figure 10/12 curves from the cost model")
    p.add_argument("--op", choices=["reduce_scatter", "allreduce"], default="allreduce")
    p.add_argument("--mb", type=int, default=646, help="message size in MB")

    p = sub.add_parser("stacking", help="image-stacking demo")
    p.add_argument("--ranks", type=int, default=8)
    p.add_argument("--size", type=int, default=256, help="square image side")

    p = sub.add_parser("chaos", help="run one collective under a seeded fault plan")
    p.add_argument("--op", choices=["allreduce", "reduce_scatter", "reduce", "bcast"],
                   default="allreduce")
    p.add_argument("--kernel", default="hzccl",
                   help="hzccl | ccoll | mpi (op-dependent; see `repro chaos -h`)")
    p.add_argument("--ranks", type=int, default=8)
    p.add_argument("--elements", type=int, default=4096, help="elements per rank")
    p.add_argument("--seed", type=int, default=0, help="fault-plan seed")
    p.add_argument("--drop", type=float, default=0.0, help="message drop rate")
    p.add_argument("--corrupt", type=float, default=0.0, help="payload corruption rate")
    p.add_argument("--truncate", type=float, default=0.0, help="payload truncation rate")
    p.add_argument("--duplicate", type=float, default=0.0, help="duplicate delivery rate")
    p.add_argument("--straggler", type=int, action="append", default=None,
                   metavar="RANK", help="straggler rank (repeatable)")
    p.add_argument("--straggler-factor", type=float, default=4.0,
                   help="compute slowdown for straggler ranks")

    p = sub.add_parser(
        "bench-kernels",
        help="per-kernel perf harness (encode/decode/select/reduce_fused)",
    )
    p.add_argument("--mb", type=float, default=16.0,
                   help="uncompressed field size in MB")
    p.add_argument("--repeats", type=int, default=3, help="best-of repeats")
    p.add_argument("--backend", action="append", default=None,
                   metavar="NAME",
                   help="backend to measure (repeatable; default: all available)")
    p.add_argument("--require", action="append", default=None,
                   metavar="NAME",
                   help="fail (exit 2, with the probe error) unless this "
                        "backend loaded (repeatable)")
    p.add_argument("--json", dest="json_path", default=None, metavar="PATH",
                   help="write the machine-readable document to PATH")
    p.add_argument("--compare", default=None, metavar="BASELINE",
                   help="compare against a committed BENCH_kernels.json; "
                        "non-zero exit on regression")
    p.add_argument("--tolerance", type=float, default=2.0,
                   help="allowed slowdown factor for --compare (default 2.0)")

    p = sub.add_parser(
        "bench-hierarchy",
        help="hierarchical vs flat allreduce sweep (model + executed)",
    )
    p.add_argument("--full", action="store_true",
                   help="include the n=1024 model grid (slow: the flat "
                        "ring schedule at 1024 ranks takes ~1 min to build)")
    p.add_argument("--skip-executed", action="store_true",
                   help="model grid only; skip the functional spot checks")
    p.add_argument("--json", dest="json_path", default=None, metavar="PATH",
                   help="write the machine-readable document to PATH")

    p = sub.add_parser(
        "tune", help="schedule autotuner: sweep a grid into a tuning table"
    )
    usub = p.add_subparsers(dest="tune_command", required=True)

    pr = usub.add_parser(
        "run", help="grid sweep -> tuning table (merged into an existing one)"
    )
    pr.add_argument("--ranks", type=int, action="append", default=None,
                    metavar="N", help="rank count (repeatable; default 8)")
    pr.add_argument("--size-kb", type=int, action="append", default=None,
                    metavar="KB",
                    help="message size in KiB (repeatable; "
                         "default 64 256 1024 4096)")
    pr.add_argument("--fabric", action="append", default=None,
                    choices=["torus", "dragonfly", "fattree"],
                    help="fabric model (repeatable; default: all three)")
    pr.add_argument("--calibration", default=None, metavar="BENCH_MP_JSON",
                    help="score candidates on the α–β network refit from a "
                         "measured BENCH_mp.json document instead of the "
                         "idealized fabrics (mutually exclusive with "
                         "--fabric; entries record the calibrated network)")
    pr.add_argument("--op", action="append", default=None,
                    choices=["allreduce", "reduce", "bcast"],
                    help="collective op to tune (repeatable; "
                         "default allreduce)")
    pr.add_argument("--roughness", action="append", default=None,
                    choices=["smooth", "rough"],
                    help="dataset roughness class (repeatable; default: both)")
    pr.add_argument("--ranks-per-node", type=int, default=8,
                    help="regular placement for the hierarchical candidates "
                         "(default 8; 1 disables them)")
    pr.add_argument("-o", "--output", default=None, metavar="PATH",
                    help="table path (default: config/$REPRO_TUNING_TABLE, "
                         "else TUNING_TABLE.json)")

    ps = usub.add_parser("show", help="print a tuning table")
    ps.add_argument("path", nargs="?", default=None,
                    help="table path (default: $REPRO_TUNING_TABLE)")

    pd = usub.add_parser("diff", help="compare two tuning tables (A -> B)")
    pd.add_argument("a", help="baseline table JSON")
    pd.add_argument("b", help="candidate table JSON")

    p = sub.add_parser(
        "mp", help="multi-process data plane: run schedules on real ranks"
    )
    msub = p.add_subparsers(dest="mp_command", required=True)

    pm = msub.add_parser(
        "run", help="run one schedule family on one OS process per rank"
    )
    pm.add_argument("--family", choices=_MP_FAMILIES, default="ring-rs",
                    help="schedule × codec case (default ring-rs)")
    pm.add_argument("--ranks", type=int, default=4)
    pm.add_argument("--elements", type=int, default=16384,
                    help="float32 elements per rank")
    pm.add_argument("--seed", type=int, default=0, help="data seed")
    pm.add_argument("--chaos", type=float, default=0.0, metavar="INTENSITY",
                    help="inject a seeded FaultPlan.chaos at this intensity")
    pm.add_argument("--fault-seed", type=int, default=0,
                    help="fault-plan seed for --chaos")
    pm.add_argument("--no-verify", action="store_true",
                    help="skip the bit-identical check against the simulator")

    pc = msub.add_parser(
        "calibrate",
        help="measure makespans and fit them back into the α–β cost model",
    )
    pc.add_argument("--ranks", type=int, action="append", default=None,
                    metavar="N", help="rank count (repeatable; default 8)")
    pc.add_argument("--elements", type=int, action="append", default=None,
                    metavar="N",
                    help="float32 elements per rank "
                         "(repeatable; default 65536 262144)")
    pc.add_argument("--family", action="append", default=None,
                    choices=_MP_FAMILIES,
                    help="family to measure (repeatable; default: the "
                         "calibration set)")
    pc.add_argument("--repeats", type=int, default=3,
                    help="best-of repeats per point (default 3)")
    pc.add_argument("-o", "--output", default=None, metavar="PATH",
                    help="write the BENCH_mp.json document to PATH")
    pc.add_argument("--check", action="store_true",
                    help="exit non-zero unless the fit passes the sanity "
                         "gate (finite coefficients, per-family model "
                         "error under the ceiling)")
    pc.add_argument("--ceiling", type=float, default=None,
                    help="model-error ceiling for --check "
                         "(default: the bench module's generous default)")

    p = sub.add_parser(
        "trace", help="trace observability: export / summary / diff"
    )
    tsub = p.add_subparsers(dest="trace_command", required=True)

    pe = tsub.add_parser(
        "export", help="run one traced collective and export its trace"
    )
    _add_trace_run_args(pe)
    pe.add_argument(
        "--format", choices=["chrome", "csv", "trace-json"], default="chrome",
        help="chrome = Perfetto-loadable trace_event JSON (default); "
             "csv = per-round per-bucket table; "
             "trace-json = raw TraceLog schema v2 (for `trace diff`)",
    )
    pe.add_argument("-o", "--output", default=None, metavar="PATH",
                    help="output file (default: trace_<op>_<kernel>.<ext>)")

    ps = tsub.add_parser(
        "summary", help="terminal digest of a saved trace or a fresh run"
    )
    ps.add_argument("path", nargs="?", default=None,
                    help="saved TraceLog JSON (schema v1/v2); "
                         "omit to run a collective instead")
    _add_trace_run_args(ps)
    ps.add_argument("--metrics", action="store_true",
                    help="collect and print the metrics registry "
                         "(fresh runs only)")

    pd = tsub.add_parser(
        "diff", help="compare two saved TraceLog JSON files (A -> B)"
    )
    pd.add_argument("a", help="baseline trace JSON")
    pd.add_argument("b", help="candidate trace JSON")
    return parser


def _add_trace_run_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--op",
                   choices=["allreduce", "reduce_scatter", "reduce", "bcast"],
                   default="allreduce")
    p.add_argument("--kernel", default="hzccl",
                   help="hzccl | ccoll | mpi (op-dependent)")
    p.add_argument("--ranks", type=int, default=8)
    p.add_argument("--elements", type=int, default=4096,
                   help="elements per rank")
    p.add_argument("--seed", type=int, default=0, help="data seed")
    p.add_argument("--multithread", action="store_true",
                   help="multi-thread compression mode")


def _cmd_info() -> int:
    import repro
    from repro.core.cost_model import PAPER_BROADWELL
    from repro.datasets import DATASETS
    from repro.runtime.network import OMNIPATH_100G

    from repro.kernels.dispatch import backend_status, current_backend_name

    print(f"repro {repro.__version__} — hZCCL (SC 2024) reproduction")
    status = ", ".join(
        f"{name} ({'ok' if msg == 'ok' else 'unavailable'})"
        for name, msg in backend_status().items()
    )
    print(f"kernel backends: {status}; active: {current_backend_name()}")
    print(f"network model: {OMNIPATH_100G.bandwidth_Bps / 1e9:.1f} GB/s link, "
          f"{OMNIPATH_100G.latency_s * 1e6:.0f} µs latency, "
          f"congestion +{OMNIPATH_100G.congestion_per_log2}/log2(N)")
    print(f"paper rates (ST GB/s): CPR {1e-9 / PAPER_BROADWELL.cpr_s_per_byte:.1f} "
          f"DPR {1e-9 / PAPER_BROADWELL.dpr_s_per_byte:.1f} "
          f"HPR {1e-9 / PAPER_BROADWELL.hpr_s_per_byte:.1f}")
    print("datasets:")
    for spec in DATASETS.values():
        print(f"  {spec.name:10} {spec.n_fields:5d} fields of {spec.dims} — {spec.domain}")
    return 0


def _cmd_stream(args) -> int:
    from repro.bench.stream import run_stream

    print(run_stream(n_elements=args.elements, repeats=args.repeats))
    return 0


def _cmd_compress(args) -> int:
    from repro.bench.timing import best_of, throughput_gbps
    from repro.compression import FZLight, OmpSZp, evaluate_quality, resolve_error_bound
    from repro.datasets import generate_field

    data = generate_field(args.dataset, 0, scale=args.scale).ravel()
    eb = resolve_error_bound(data, rel_eb=args.rel_eb)
    compressors = {"fZ-light": FZLight()}
    if args.baseline:
        compressors["ompSZp"] = OmpSZp()
    for name, comp in compressors.items():
        field = comp.compress(data, abs_eb=eb)
        out = comp.decompress(field)
        report = evaluate_quality(data, out, field.nbytes)
        t = best_of(lambda: comp.compress(data, abs_eb=eb), repeats=2)
        print(f"{name:9} | {report} | compress {throughput_gbps(data.nbytes, t.seconds):.2f} GB/s")
    return 0


def _cmd_pipelines(args) -> int:
    from repro.compression import FZLight, resolve_error_bound
    from repro.datasets import generate_pair
    from repro.homomorphic import HZDynamic

    a, b = generate_pair(args.dataset, scale=args.scale)
    a, b = a.ravel(), b.ravel()
    eb = resolve_error_bound(a, rel_eb=args.rel_eb)
    comp = FZLight()
    engine = HZDynamic()
    engine.add(comp.compress(b, abs_eb=eb), comp.compress(a, abs_eb=eb))
    print(f"{args.dataset} @ REL {args.rel_eb:g}: {engine.stats}")
    return 0


def _cmd_scaling(args) -> int:
    from repro.bench.tables import format_table
    from repro.core.cost_model import PAPER_BROADWELL
    from repro.runtime.network import OMNIPATH_100G
    from repro.schedule import family_cost

    total = args.mb * 10**6
    rows = []
    for n in (2, 4, 8, 16, 32, 64, 128, 256, 512):
        row = [n]
        for mt in (False, True):
            mpi, cc, hz = (
                family_cost(
                    f"{kernel}_{args.op}", total, PAPER_BROADWELL,
                    OMNIPATH_100G, mt, n=n,
                ).total_time
                for kernel in ("mpi", "ccoll", "hzccl")
            )
            row += [mpi / cc, mpi / hz]
        rows.append(row)
    print(format_table(
        ["nodes", "C-Coll ST", "hZCCL ST", "C-Coll MT", "hZCCL MT"],
        rows,
        title=f"{args.op} speedup over MPI ({args.mb} MB, paper rates)",
    ))
    return 0


def _cmd_stacking(args) -> int:
    from repro.apps import make_exposures, stack_images
    from repro.compression import resolve_error_bound
    from repro.core.config import CollectiveConfig

    scene, exposures = make_exposures(args.ranks, shape=(args.size, args.size), seed=1)
    eb = resolve_error_bound(exposures[0], rel_eb=1e-4)
    config = CollectiveConfig(error_bound=eb)
    ref = stack_images(exposures, "mpi", config)
    hz = stack_images(exposures, "hzccl", config, reference=ref.stacked)
    print(f"{args.ranks} exposures of {args.size}x{args.size}")
    print(f"hZCCL stack: PSNR {hz.psnr:.2f} dB, NRMSE {hz.nrmse:.2e}, "
          f"wire {hz.bytes_on_wire / 1e6:.2f} MB vs MPI {ref.bytes_on_wire / 1e6:.2f} MB")
    single = float(np.sqrt(np.mean((exposures[0] - scene) ** 2)))
    stacked = float(np.sqrt(np.mean((hz.stacked - scene) ** 2)))
    print(f"noise RMS: {single:.3f} -> {stacked:.3f} ({single / stacked:.1f}x cleaner)")
    return 0


def _cmd_chaos(args) -> int:
    from repro.core.api import HZCCL
    from repro.core.config import CollectiveConfig
    from repro.runtime.faults import FaultPlan

    plan = FaultPlan(
        seed=args.seed,
        drop_rate=args.drop,
        corrupt_rate=args.corrupt,
        truncate_rate=args.truncate,
        duplicate_rate=args.duplicate,
        stragglers=tuple(args.straggler or ()),
        straggler_factor=args.straggler_factor if args.straggler else 1.0,
    )
    config = CollectiveConfig().with_faults(plan)
    lib = HZCCL(config)
    healthy = HZCCL(CollectiveConfig())
    rng = np.random.default_rng(args.seed)
    data = [
        np.cumsum(rng.standard_normal(args.elements)).astype(np.float32)
        for _ in range(args.ranks)
    ]
    if args.op == "bcast":
        result = lib.bcast(data[0], args.ranks, kernel=args.kernel)
        baseline = healthy.bcast(data[0], args.ranks, kernel=args.kernel)
    else:
        op = getattr(lib, args.op)
        result = op(data, kernel=args.kernel)
        baseline = getattr(healthy, args.op)(data, kernel=args.kernel)
    print(f"{args.op}/{args.kernel} over {args.ranks} ranks under {plan.describe()}")
    print(f"degraded to plain kernel: {result.degraded}")
    if result.fault_stats is not None:
        counters = {
            k: v for k, v in result.fault_stats.as_dict().items() if v
        }
        print(f"fault stats: {counters}")
    print(
        f"makespan {result.total_time * 1e3:.3f} ms "
        f"(fault-free {baseline.total_time * 1e3:.3f} ms), "
        f"wire {result.bytes_on_wire / 1e6:.2f} MB "
        f"(fault-free {baseline.bytes_on_wire / 1e6:.2f} MB)"
    )
    return 0


def _cmd_bench_kernels(args) -> int:
    import json
    from pathlib import Path

    from repro.bench.kernels import (
        compare_to_baseline,
        dumps,
        format_report,
        run_kernel_bench,
    )

    backends = tuple(args.backend) if args.backend else None
    require = tuple(args.require) if args.require else None
    try:
        doc = run_kernel_bench(
            mb=args.mb, repeats=args.repeats, backends=backends, require=require
        )
    except RuntimeError as exc:
        print(f"bench-kernels: {exc}", file=sys.stderr)
        return 2
    print(format_report(doc))
    if args.json_path:
        Path(args.json_path).write_text(dumps(doc))
        print(f"wrote {args.json_path}")
    if args.compare:
        baseline = json.loads(Path(args.compare).read_text())
        failures = compare_to_baseline(doc, baseline, tolerance=args.tolerance)
        if failures:
            print("PERF REGRESSION:")
            for f in failures:
                print(f"  {f}")
            return 1
        print(f"no regression vs {args.compare} (tolerance {args.tolerance}x)")
    return 0


def _cmd_bench_hierarchy(args) -> int:
    import json
    from pathlib import Path

    from repro.bench.hierarchy import (
        HZ_COMM_RTOL,
        executed_rows,
        executed_sweep,
        model_rows,
        model_sweep,
    )
    from repro.bench.tables import format_table

    ranks = (256, 1024) if args.full else (256,)
    doc = {"rates": "PAPER_BROADWELL", "ranks_per_node": 8,
           "model": model_sweep(ranks=ranks)}
    print(format_table(
        ["ranks", "MB", "fabric", "inter", "flat hz ms", "hier hz ms",
         "hz speedup", "mpi speedup"],
        model_rows(doc["model"]),
        title="Hierarchical vs flat allreduce (modelled, 8 ranks/node)",
    ))
    if not args.skip_executed:
        doc["executed"] = executed_sweep()
        print(format_table(
            ["ranks", "rpn", "mpi exec µs", "mpi model µs", "hz exec µs",
             "hz model µs", "hz exec/model", "wire ratio"],
            executed_rows(doc["executed"]),
            title=f"Executed vs modelled comm (tolerance {HZ_COMM_RTOL:.0%})",
        ))
    if args.json_path:
        Path(args.json_path).write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {args.json_path}")
    return 0


def _cmd_mp(args) -> int:
    import json
    from pathlib import Path

    from repro.bench.mp import (
        CALIBRATION_FAMILIES,
        DEFAULT_ERROR_CEILING,
        build_case,
        calibrate,
        calibration_rows,
        check_document,
        sim_reference,
        states_equal,
    )
    from repro.bench.tables import format_table
    from repro.runtime.faults import FaultPlan
    from repro.runtime.mp_cluster import MPCluster
    from repro.schedule import MPExecutor

    if args.mp_command == "run":
        plan = None
        if args.chaos > 0.0:
            plan = FaultPlan.chaos(
                args.fault_seed, args.ranks, intensity=args.chaos
            )
        case = build_case(
            args.family, args.ranks, args.elements, seed=args.seed
        )
        # the same (schedule, spec, state) drives both data planes: here
        # the MP cluster, in sim_reference the simulated oracle
        with MPCluster(args.ranks) as cluster:
            run = MPExecutor(cluster, case.spec, plan=plan).run(
                case.schedule, case.make_state()
            )
        print(
            f"{case.schedule.name} × {case.spec.kind} on {args.ranks} "
            "processes"
        )
        print(
            f"  makespan {run.makespan_s * 1e3:.3f} ms  "
            f"compute {run.compute_s * 1e3:.3f} ms  "
            f"wire {run.wire} B  degraded {run.degraded}"
        )
        interesting = {k: v for k, v in sorted(run.stats.items()) if v}
        if interesting:
            print("  " + "  ".join(f"{k} {v}" for k, v in interesting.items()))
        if args.no_verify:
            return 0
        ref, _ = sim_reference(case, plan=plan)
        if ref.degraded:
            # a degrade aborts at rank-dependent points; the contract is
            # the degraded flag, not matching state
            ok, verdict = run.degraded, "both degraded (flags match)"
        else:
            ok = (
                states_equal(run.state, ref.state)
                and run.wire == ref.wire
                and not run.degraded
            )
            verdict = f"bit-identical to the simulator (wire {ref.wire} B)"
        if not ok:
            print(
                f"  verify: MISMATCH vs simulator "
                f"(wire {run.wire} vs {ref.wire}, "
                f"degraded {run.degraded} vs {ref.degraded})"
            )
            return 1
        print(f"  verify: {verdict}")
        return 0

    # calibrate
    doc = calibrate(
        ranks=tuple(args.ranks) if args.ranks else (8,),
        elements=tuple(args.elements) if args.elements else (65536, 262144),
        families=tuple(args.family) if args.family else CALIBRATION_FAMILIES,
        repeats=args.repeats,
    )
    print(format_table(
        ["family", "ranks", "elements", "measured µs", "overhead µs",
         "modelled µs", "err"],
        calibration_rows(doc),
        title="; ".join(
            f"{n} ranks: {fit['op_s'] * 1e6:.0f} µs/op + "
            f"α = {fit['alpha_s'] * 1e6:.0f} µs/hop, "
            + (
                f"β⁻¹ = {fit['bandwidth_GBps']:.2f} GB/s"
                if fit["bandwidth_GBps"]
                else "β⁻¹ = n/a (latency-bound fit)"
            )
            for n, fit in doc["fits"].items()
        ) + f"; worst family error {doc['max_rel_err']:.0%}",
    ))
    if args.output:
        Path(args.output).write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {args.output}")
    if args.check:
        ceiling = (
            args.ceiling if args.ceiling is not None else DEFAULT_ERROR_CEILING
        )
        failures = check_document(doc, ceiling=ceiling)
        if failures:
            print("CALIBRATION GATE FAILED:")
            for f in failures:
                print(f"  {f}")
            return 1
        print(f"calibration gate passed (ceiling {ceiling:.0%})")
    return 0


def _cmd_tune(args) -> int:
    from repro.core.cost_model import PAPER_BROADWELL
    from repro.runtime import NodeMap
    from repro.schedule.tuner import (
        SCHEMA_VERSION,
        TuningTable,
        TuningTableError,
        resolve_table_path,
        tune_point,
    )

    def load_or_exit(path: str) -> TuningTable:
        try:
            return TuningTable.load(path)
        except TuningTableError as exc:
            raise SystemExit(str(exc))

    if args.tune_command == "show":
        path = args.path or resolve_table_path()
        if path is None:
            raise SystemExit("no table path given and $REPRO_TUNING_TABLE unset")
        table = load_or_exit(path)
        print(f"{path}: {len(table)} entries (schema {SCHEMA_VERSION})")
        for key in sorted(table.entries, key=lambda k: k.canonical()):
            e = table.entries[key]
            print(f"  {key.canonical():48s} {e.pick.slug():24s}"
                  f" {e.cost_s * 1e3:10.3f} ms")
        return 0

    if args.tune_command == "diff":
        a, b = load_or_exit(args.a), load_or_exit(args.b)
        print(f"{args.a} -> {args.b}")
        keys_a, keys_b = set(a.entries), set(b.entries)
        for key in sorted(keys_a - keys_b, key=lambda k: k.canonical()):
            print(f"  - {key.canonical()}")
        for key in sorted(keys_b - keys_a, key=lambda k: k.canonical()):
            e = b.entries[key]
            print(f"  + {key.canonical()} -> {e.pick.slug()}")
        changed = 0
        for key in sorted(keys_a & keys_b, key=lambda k: k.canonical()):
            ea, eb = a.entries[key], b.entries[key]
            if ea == eb:
                continue
            changed += 1
            print(f"  ~ {key.canonical()}: {ea.pick.slug()}"
                  f" ({ea.cost_s * 1e3:.3f} ms) -> {eb.pick.slug()}"
                  f" ({eb.cost_s * 1e3:.3f} ms)")
        print(f"{len(keys_b - keys_a)} added, {len(keys_a - keys_b)} removed, "
              f"{changed} changed, "
              f"{len(keys_a & keys_b) - changed} identical")
        return 0

    # run
    from repro.bench.tuner import FABRICS

    ranks = args.ranks or [8]
    sizes_kb = args.size_kb or [64, 256, 1024, 4096]
    roughness = args.roughness or ["smooth", "rough"]
    ops = args.op or ["allreduce"]
    out = args.output or resolve_table_path() or "TUNING_TABLE.json"

    if args.calibration:
        # satellite loop closed: score candidates on the network refit
        # from measured MP makespans, not the idealized fabric models
        if args.fabric:
            raise SystemExit(
                "--calibration and --fabric are mutually exclusive: a "
                "calibrated run scores on the measured network"
            )
        import json
        from pathlib import Path

        from repro.bench.mp import samples_from_document
        from repro.schedule.cost import fit_alpha_beta

        try:
            doc = json.loads(Path(args.calibration).read_text())
            samples = samples_from_document(doc)
        except FileNotFoundError:
            raise SystemExit(f"calibration file not found: {args.calibration}")
        except (ValueError, TypeError) as exc:
            raise SystemExit(
                f"{args.calibration} is not a calibration document: {exc}"
            )
        fit = fit_alpha_beta(samples)
        label = f"calibrated:{os.path.basename(args.calibration)}"
        networks = {label: fit.as_network()}
        print(
            f"calibrated network from {args.calibration}: "
            f"α = {fit.alpha_s * 1e6:.1f} µs/hop, "
            f"β⁻¹ = {1.0 / fit.beta_s_per_byte / 1e9:.2f} GB/s"
            if fit.beta_s_per_byte > 0
            else f"calibrated network from {args.calibration}: "
                 f"α = {fit.alpha_s * 1e6:.1f} µs/hop (latency-bound fit)"
        )
    else:
        fabrics = args.fabric or sorted(FABRICS)
        networks = {f: FABRICS[f] for f in fabrics}

    table = TuningTable()
    for n in ranks:
        rpn = min(args.ranks_per_node, n)
        nodemap = NodeMap.regular(n, rpn) if rpn > 1 else None
        for label, network in networks.items():
            for kb in sizes_kb:
                for rough in roughness:
                    for op in ops:
                        key, entry, _ = tune_point(
                            n, kb << 10, network, rough, PAPER_BROADWELL,
                            nodemap, op=op,
                            network_label=(
                                label if args.calibration else None
                            ),
                        )
                        table.put(key, entry)
                        print(
                            f"  {key.canonical():48s}"
                            f" -> {entry.pick.slug():24s}"
                            f" {entry.cost_s * 1e3:10.3f} ms"
                        )
    if os.path.exists(out):
        table = load_or_exit(out).merge(table)
    table.save(out)
    print(f"wrote {out} ({len(table)} entries)")
    return 0


def _run_traced(args):
    """Run one collective with tracing on; returns its CollectiveResult."""
    from repro.core.api import HZCCL
    from repro.core.config import CollectiveConfig

    config = CollectiveConfig(multithread=args.multithread)
    lib = HZCCL(config, trace=True)
    rng = np.random.default_rng(args.seed)
    data = [
        np.cumsum(rng.standard_normal(args.elements)).astype(np.float32)
        for _ in range(args.ranks)
    ]
    if args.op == "bcast":
        return lib.bcast(data[0], args.ranks, kernel=args.kernel)
    return getattr(lib, args.op)(data, kernel=args.kernel)


def _cmd_trace(args) -> int:
    import json
    from pathlib import Path

    from repro.obs import (
        bucket_csv,
        chrome_trace,
        diff_text,
        metrics_enabled,
        summary_text,
        validate_chrome_trace,
    )
    from repro.runtime.trace import TraceLog

    def load(path: str) -> TraceLog:
        try:
            return TraceLog.from_json(Path(path).read_text())
        except FileNotFoundError:
            raise SystemExit(f"trace file not found: {path}")
        except (ValueError, KeyError, TypeError) as exc:
            raise SystemExit(f"{path} is not a readable trace document: {exc}")

    if args.trace_command == "diff":
        a = load(args.a)
        b = load(args.b)
        print(f"{args.a} -> {args.b}")
        print(diff_text(a, b))
        return 0

    if args.trace_command == "summary":
        if args.path is not None:
            print(summary_text(load(args.path)))
            return 0
        if args.metrics:
            with metrics_enabled() as registry:
                result = _run_traced(args)
            print(summary_text(result.trace, metrics=registry))
        else:
            result = _run_traced(args)
            print(summary_text(result.trace))
        return 0

    # export
    result = _run_traced(args)
    log = result.trace
    ext = {"chrome": "json", "csv": "csv", "trace-json": "json"}[args.format]
    out = Path(args.output or f"trace_{args.op}_{args.kernel}.{ext}")
    if args.format == "chrome":
        document = chrome_trace(log, name=f"{args.op}/{args.kernel}")
        validate_chrome_trace(document)
        out.write_text(json.dumps(document))
    elif args.format == "csv":
        out.write_text(bucket_csv(log))
    else:
        log.to_json(out)
    print(
        f"wrote {out} ({args.format}, {log.n_rounds} rounds, "
        f"{len(log.events)} events)"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "info": lambda: _cmd_info(),
        "stream": lambda: _cmd_stream(args),
        "compress": lambda: _cmd_compress(args),
        "pipelines": lambda: _cmd_pipelines(args),
        "scaling": lambda: _cmd_scaling(args),
        "stacking": lambda: _cmd_stacking(args),
        "chaos": lambda: _cmd_chaos(args),
        "bench-kernels": lambda: _cmd_bench_kernels(args),
        "bench-hierarchy": lambda: _cmd_bench_hierarchy(args),
        "tune": lambda: _cmd_tune(args),
        "mp": lambda: _cmd_mp(args),
        "trace": lambda: _cmd_trace(args),
    }
    return handlers[args.command]()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
