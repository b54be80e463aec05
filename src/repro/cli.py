"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``        model-zoo profiles (params/MACs per model).
``table1``      Table I macro specification report.
``fig14``       the chip-level system comparison.
``fig6b|fig10|fig11|fig12``  the training experiments (``--full`` for
                the paper-scale budget, default is the fast budget).
``options``     Options I-IV head-to-head study (Fig. 6).
``packing``     the subarray packing ablation (section 4.3.2).
``encoding``    activation-encoding trade-off (section 3.1).
``designspace`` ADC-count vs activated-rows grid (section 4.3.1).
``chiplets``    ROM-CiM vs SRAM-CiM chiplet assemblies (section 4.3.3).
``pingpong``    double-buffered weight-reload schedules (section 4.3.3).
``training``    on-chip training cost, full vs ReBranch (section 3.3).
``variation``   static device-variation Monte-Carlo (section 2).
``dusearch``    automated minimum-area D/U selection (section 3.2).
``subbit``      sub-8-bit quantization on VGG vs MobileNet (section 2.3).
``runtime``     compile-once runtime amortization study (serving vs
                streaming, compiled vs seed per-call path).
``compile``     compile a zoo model and persist it as a content-addressed
                artifact (``--save``), or restore and smoke-run a saved
                artifact (``--load KEY``) without rebuilding the model.
``warm``        pre-populate an artifact store for a list of zoo models
                (the fleet warm-up step: later registrations load
                instead of compiling).
``warmstart``   cold-compile vs artifact-load startup study, with the
                bitwise-identity check the snapshot layer guarantees.
``serve``       dynamic-batching inference server demo: Poisson traffic
                from mixed tenants over registered models, with
                throughput / latency / batching / energy metrics
                (``--trace`` writes a Chrome trace, ``--metrics`` a
                Prometheus text snapshot).
``shard``       sharded pipeline-parallel execution study: cut a
                compiled model across simulated chiplets, execute a
                micro-batch stream through them, and compare serial vs
                pipelined makespans with link energy accounting
                (``--trace`` writes a Chrome trace with per-shard
                tracks).
``profile``     per-plan-node runtime profile of a zoo model: wall and
                simulated-chip time, energy, MACs, and engine-cache
                tier per node, plus folded flamegraph stacks
                (``--collapsed``).
``chaos``       deterministic fault-injection campaign study: shard
                deaths with failover (availability, recovery-time
                distribution, bitwise witness for delivered work) and
                degradation corners (bit-line noise, ADC drift) scored
                against the clean oracle.

The global ``-v`` / ``-vv`` flag turns on INFO / DEBUG logging from the
``repro`` logger hierarchy (silent by default).  A command that meets a
missing, damaged or stale artifact prints ``repro: <ErrorClass>:
<message>`` on stderr and exits 1.

Every subcommand is one row of :data:`COMMANDS` — ``(name, help,
handler, argument specs)`` — from which :func:`build_parser` is a loop.
The study commands share one handler, :func:`_run_study`: pick the
module's ``full_config()`` or ``fast_config()``, apply the arguments
declared as config overrides, ``run``, print ``format_report(result)``.

``docs/cli.md`` (regenerated by ``scripts/gen_cli_docs.py``) embeds the
``--help`` output of every subcommand.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time
from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np

from repro import models, viz
from repro.experiments import (
    ablations,
    chaos_study,
    du_search,
    encoding_study,
    fig6b,
    fig10,
    fig11,
    fig12,
    fig14,
    options_study,
    pipeline_study,
    related_work_quant,
    runtime_study,
    shard_study,
    table1,
    warmstart_study,
)
from repro.experiments.common import format_metrics, format_table, zoo_model
from repro.obs import trace
from repro.runtime.errors import SnapshotError


# ----------------------------------------------------------------------
# The command table's vocabulary
# ----------------------------------------------------------------------
class Command(NamedTuple):
    name: str
    help: str
    handler: Callable[[argparse.Namespace], int]
    args: tuple = ()


def arg(*flags: str, **kwargs):
    """One ``add_argument`` call, as data."""
    return flags, kwargs


def positive_int(value: str) -> int:
    count = int(value)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {count}")
    return count


#: Zoo models the runtime/shard studies can drive: classifiers whose
#: downsampling fits the studies' small (CIFAR-scale) input images.
#: The YOLO detectors need 416x416 inputs — far beyond a study budget.
_STUDY_MODELS = ("mobilenet", "resnet18", "resnet8", "vgg8")

FULL = arg("--full", action="store_true", help="full budget")
SEED = arg("--seed", type=int, default=0)


def zoo_arg(default: str):
    return arg("--model", default=default, choices=models.available_models())


def study_model_arg(verb: str, synthetic: str):
    return arg(
        "--model", default=None, choices=_STUDY_MODELS,
        help=f"{verb} a zoo network (width-reduced, BN folded) instead of "
        f"the synthetic {synthetic}",
    )


def trace_arg(help: str):
    return arg("--trace", metavar="OUT.json", default=None, help=help)


def shards_arg(help: str, **kwargs):
    return arg("--shards", type=positive_int, default=None, help=help, **kwargs)


def batches_arg(help: str):
    return arg("--batches", type=positive_int, default=None, help=help)


def _serve_zoo(config, model: str) -> None:
    # A zoo network costs far more per request than the synthetic MLP.
    config.model = model
    config.n_requests = min(config.n_requests, 16)


def _sweep(config, counts: List[int]) -> None:
    config.shard_counts = sorted(set(counts))


# ----------------------------------------------------------------------
# Handlers
# ----------------------------------------------------------------------
@contextlib.contextmanager
def _chrome_trace(path: Optional[str]):
    """Trace the enclosed block and, on the way out, write it to ``path``
    as a Chrome trace; without a path, do nothing."""
    if not path:
        yield
        return
    from repro.obs import export_chrome

    with trace.tracing() as tracer:
        yield
    export_chrome(tracer, path)
    print(f"\nwrote Chrome trace ({len(tracer)} spans) to {path}")


def _run_study(study, overrides: dict, args: argparse.Namespace) -> int:
    """The one handler behind every study command.

    ``overrides`` maps a parsed argument to the config field it sets
    (or a ``(config, value)`` callable); ``None`` means "not given".
    """
    config = study.full_config() if args.full else study.fast_config()
    for dest, target in overrides.items():
        value = getattr(args, dest)
        if value is None:
            continue
        if callable(target):
            target(config, value)
        else:
            setattr(config, target, value)
    with _chrome_trace(getattr(args, "trace", None)):
        print(study.format_report(study.run(config)))
    return 0


def study(name: str, module, *args, overrides=None, help=None) -> Command:
    """A command that runs ``module`` through :func:`_run_study`."""
    return Command(
        name,
        help or f"run the {name} experiment",
        lambda parsed: _run_study(module, overrides or {}, parsed),
        args,
    )


def _zoo_profile(name: str):
    model = models.build_model(name, rng=np.random.default_rng(0))
    return models.profile_model(model, models.INPUT_SHAPES[name])


def _cmd_info(args: argparse.Namespace) -> int:
    rows = []
    for name in models.available_models():
        profile = _zoo_profile(name)
        rows.append(
            (
                name,
                f"{profile.total_params / 1e6:.2f}M",
                f"{profile.total_macs / 1e9:.2f}G",
                str(profile.output_shape),
            )
        )
    print(format_table(rows, ["model", "params", "MACs", "output"]))
    if args.verbose:
        print()
        print(_zoo_profile(args.model).summary())
    return 0


def _cmd_table1(_: argparse.Namespace) -> int:
    print(table1.format_report(table1.run()))
    return 0


def _cmd_fig14(_: argparse.Namespace) -> int:
    result = fig14.run(fig14.full_config())
    print(fig14.format_report(result))
    print()
    print(
        viz.bar_chart(
            sorted(result.improvements().items()),
            title="energy-efficiency improvement vs iso-capacity SRAM-CiM chip",
            unit="x",
        )
    )
    print()
    print("YOLoC (yolo) area breakdown:")
    print(viz.stacked_fraction_bar(result.yoloc_area_breakdown("yolo")))
    print("single-chip SRAM-CiM (yolo) energy breakdown:")
    print(viz.stacked_fraction_bar(result.energy_breakdown("yolo")))
    return 0


def _cmd_packing(_: argparse.Namespace) -> int:
    print(format_metrics(ablations.packing_ablation().items()))
    return 0


def _cmd_designspace(_: argparse.Namespace) -> int:
    from repro.cim import explore

    result = explore()
    rows = [
        (p.n_adcs, p.activated_rows, p.rel_error, p.latency_ns, p.adc_area_mm2 * 1e3)
        for p in result.points
    ]
    print(
        format_table(
            rows, ["n_adcs", "act_rows", "rel_error", "ns_per_vec", "adc_mm2_x1e3"]
        )
    )
    frontier = result.frontier()
    print(f"\npareto frontier: {len(frontier)} / {len(result.points)} corners")
    return 0


def _cmd_chiplets(args: argparse.Namespace) -> int:
    from repro.arch import chiplet_scaling

    result = chiplet_scaling(_zoo_profile(args.model), model_name=args.model)
    print(format_table(result.rows(), result.HEADERS))
    return 0


def _cmd_training(_: argparse.Namespace) -> int:
    from repro.arch import TrainingCostModel

    cost_model = TrainingCostModel()
    rows = []
    for name, _ in fig14.BENCHMARKS:
        summary = cost_model.summary(_zoo_profile(name))
        rows.append(
            (
                name,
                summary["full_step_uj"],
                summary["rebranch_step_uj"],
                summary["energy_saving"],
                summary["trainable_reduction"],
            )
        )
    print(
        format_table(
            rows, ["model", "full_uJ", "rebranch_uJ", "saving", "trainableX"]
        )
    )
    return 0


def _cmd_variation(_: argparse.Namespace) -> int:
    from repro.cim import tolerable_cell_sigma, variation_sweep

    results = variation_sweep()
    rows = [
        (v.cell_sigma, v.adc_offset_sigma, r.mean, r.p95) for v, r in results
    ]
    print(format_table(rows, ["cell_sigma", "adc_offset", "mean_err", "p95_err"]))
    sigma = tolerable_cell_sigma(error_budget=0.05)
    print(f"\ntolerable cell mismatch at 5% error budget: sigma = {sigma:.2f}")
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    from repro.runtime import (
        ArtifactStore,
        EngineCache,
        artifact_key,
        compile_model,
        load,
        save,
    )

    store = ArtifactStore(args.store)
    if args.load is not None:
        start = time.perf_counter()
        load(store, args.load, verify=args.verify)
        load_ms = (time.perf_counter() - start) * 1000.0
        meta = store.meta(args.load)
        print(
            f"loaded {args.load[:16]}… in {load_ms:.1f} ms "
            f"({meta['n_weight_layers']} weight layers, "
            f"{len(meta['engines'])} programmed engines"
            + (
                f", {meta['shards']['n_shards']} shards)"
                if meta["shards"]
                else ")"
            )
        )
        return 0

    model, config = zoo_model(args.model, args.seed)
    # Key the artifact on the model *as built* (pre-fold), matching the
    # registry's and `repro warm`'s warm-start lookups.
    key = artifact_key(model, config, shards=args.shards)
    start = time.perf_counter()
    compiled = compile_model(model, config, cache=EngineCache(), shards=args.shards)
    compile_ms = (time.perf_counter() - start) * 1000.0
    if args.save:
        start = time.perf_counter()
        save(compiled, store, key=key)
        save_ms = (time.perf_counter() - start) * 1000.0
        size_mb = store.model_path(key).stat().st_size / 1e6
        print(
            f"compiled {args.model} in {compile_ms:.1f} ms; saved "
            f"{size_mb:.1f} MB artifact in {save_ms:.1f} ms"
        )
        print(f"key: {key}")
    else:
        print(
            f"compiled {args.model} in {compile_ms:.1f} ms "
            f"(pass --save to persist it)"
        )
    return 0


def _cmd_warm(args: argparse.Namespace) -> int:
    from repro.runtime import ArtifactStore, EngineCache, artifact_key, compile_model, save

    store = ArtifactStore(args.store)
    rows = []
    for name in args.models:
        model, config = zoo_model(name, args.seed)
        key = artifact_key(model, config, shards=args.shards)
        if key in store and not args.force:
            rows.append((name, "cached", 0.0, key[:16]))
            continue
        start = time.perf_counter()
        compiled = compile_model(
            model, config, cache=EngineCache(), shards=args.shards
        )
        save(compiled, store, key=key)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        rows.append((name, "compiled", round(elapsed_ms, 1), key[:16]))
    if args.verify:
        for key in store.keys():
            store.verify(key)
        print(f"verified {len(store.keys())} artifacts")
    print(format_table(rows, ["model", "status", "ms", "key"]))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro import nn
    from repro.serve import (
        BatchPolicy,
        InferenceServer,
        LoadGenerator,
        LoadSpec,
        ModelRegistry,
    )

    rng = np.random.default_rng(args.seed)
    zoo = {
        "mlp-small": nn.Sequential(
            nn.Linear(128, 64, rng=rng), nn.ReLU(), nn.Linear(64, 10, rng=rng)
        ),
        "mlp-wide": nn.Sequential(
            nn.Linear(128, 96, rng=rng), nn.ReLU(), nn.Linear(96, 10, rng=rng)
        ),
    }
    registry = ModelRegistry()
    for name, model in zoo.items():
        registry.register(name, model)
    print("registry:")
    print(format_table(registry.rows(), ["model", "layers", "gen", "compile_ms"]))

    policy = BatchPolicy(
        max_batch_size=args.batch,
        max_wait_s=args.wait_ms / 1000.0,
        max_queue_depth=args.queue_depth,
    )
    pool_rng = np.random.default_rng(args.seed + 1)
    pools = {name: pool_rng.normal(size=(64, 128)) for name in zoo}
    spec = LoadSpec(
        n_requests=args.requests,
        rate_rps=args.rate if args.rate > 0 else None,
        tenant_weights={"alice": 3.0, "bob": 2.0, "carol": 1.0},
        seed=args.seed,
    )
    server = InferenceServer(registry, policy, n_workers=args.workers)
    with _chrome_trace(args.trace):
        with server:
            report = LoadGenerator(server, spec, pools).run()
            snapshot = server.snapshot()
        print(
            f"\nload: {report.completed}/{report.n_requests} completed, "
            f"{report.rejected} rejected, {report.failed} failed, "
            f"{report.cancelled} cancelled in "
            f"{report.wall_s * 1e3:.0f} ms ({report.throughput_rps:.0f} req/s)"
        )
        print("\nserver metrics:")
        print(format_metrics(snapshot.rows()))
        print("\nbatch-size histogram:")
        hist = sorted(snapshot.batch_size_hist.items())
        print(format_table(hist, ["batch_samples", "count"]))
        print("\nper-tenant accounting:")
        print(
            format_table(
                snapshot.tenant_rows(),
                ["tenant", "completed", "samples", "rejected", "failed", "cancelled", "nJ_per_sample", "MMACs_per_sample"],
            )
        )
    if args.metrics:
        from repro.obs import collect_server, export_prometheus

        export_prometheus(collect_server(server), args.metrics)
        print(f"wrote Prometheus metrics to {args.metrics}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs import profiler
    from repro.runtime import EngineCache, compile_model

    model, config = zoo_model(args.model, args.seed)
    compiled = compile_model(model, config, cache=EngineCache())
    shape = models.INPUT_SHAPES[args.model]
    rng = np.random.default_rng(args.seed + 1)
    batch = rng.normal(size=(args.batch,) + shape[1:])
    report = profiler.profile(
        compiled, batch, runs=args.runs, rng_seed=args.seed
    )
    print(
        f"{args.model}: {len(report.nodes)} plan nodes, "
        f"batch {report.batch} x {report.runs} run(s) "
        f"in {report.wall_s * 1e3:.1f} ms wall"
    )
    print(
        format_table(
            report.rows(),
            [
                "node",
                "kind",
                "calls",
                "wall_ms",
                "chip_ns",
                "energy_fJ",
                "MACs",
                "%energy",
                "tier",
            ],
        )
    )
    print(
        f"\nenergy: node sum {report.total_energy_fj:.1f} fJ, "
        f"run total {report.stats.total_energy_fj:.1f} fJ; "
        f"chip time {report.total_chip_ns / 1e6:.3f} ms"
    )
    if args.collapsed:
        lines = profiler.collapsed_stacks(report.tracer, metric=args.metric)
        with open(args.collapsed, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"wrote {len(lines)} collapsed stacks to {args.collapsed}")
    return 0


# ----------------------------------------------------------------------
# The table (registration order is the order of ``--help`` and docs/cli.md)
# ----------------------------------------------------------------------
COMMANDS: Tuple[Command, ...] = (
    Command(
        "info", "model zoo profiles", _cmd_info,
        (arg("--verbose", action="store_true"), zoo_arg("vgg8")),
    ),
    Command("table1", "Table I report", _cmd_table1),
    Command("fig14", "system comparison", _cmd_fig14),
    Command("packing", "subarray packing ablation", _cmd_packing),
    Command("designspace", "ADC/rows design space", _cmd_designspace),
    Command("training", "on-chip training costs", _cmd_training),
    Command("variation", "device-variation Monte-Carlo", _cmd_variation),
    Command(
        "serve", "dynamic-batching serving demo", _cmd_serve,
        (
            arg("--requests", type=int, default=128, help="total requests"),
            arg(
                "--rate", type=float, default=2000.0,
                help="Poisson offered load in req/s (0 = unpaced burst)",
            ),
            arg("--batch", type=int, default=16, help="max batch samples"),
            arg("--wait-ms", type=float, default=2.0, help="max batching wait"),
            arg("--queue-depth", type=int, default=256, help="admission bound"),
            arg("--workers", type=int, default=2, help="worker threads"),
            SEED,
            trace_arg("write a Chrome trace of the run (load in Perfetto)"),
            arg(
                "--metrics", metavar="OUT.prom", default=None,
                help="write server metrics in Prometheus text format",
            ),
        ),
    ),
    Command(
        "compile", "compile a zoo model to a persisted artifact", _cmd_compile,
        (
            arg("--store", required=True, help="artifact store directory"),
            zoo_arg("vgg8"),
            arg(
                "--save", action="store_true",
                help="persist the compiled image into the store",
            ),
            arg(
                "--load", metavar="KEY", default=None,
                help="restore the artifact under KEY instead of compiling",
            ),
            arg(
                "--verify", action="store_true",
                help="with --load: checksum the artifact and re-hash its weights",
            ),
            shards_arg("compile a sharded deployment across N simulated chiplets"),
            SEED,
        ),
    ),
    Command(
        "warm", "pre-populate an artifact store for zoo models", _cmd_warm,
        (
            arg("--store", required=True, help="artifact store directory"),
            arg(
                "--models", nargs="+", default=["vgg8"],
                choices=models.available_models(),
            ),
            shards_arg("persist sharded deployments across N simulated chiplets"),
            arg(
                "--force", action="store_true",
                help="recompile even when the store already holds the key",
            ),
            arg(
                "--verify", action="store_true",
                help="checksum every artifact in the store afterwards",
            ),
            SEED,
        ),
    ),
    study(
        "warmstart", warmstart_study, FULL,
        help="cold-compile vs artifact-load startup study",
    ),
    study(
        "shard", shard_study,
        shards_arg(
            "shard counts to sweep (default: the study config's sweep)", nargs="+"
        ),
        batches_arg("micro-batches in the stream"),
        study_model_arg("cut", "conv stack"),
        FULL,
        trace_arg(
            "write a Chrome trace of the sharded streams (per-shard "
            "tracks; load in Perfetto)"
        ),
        overrides={"model": "model", "shards": _sweep, "batches": "n_batches"},
        help="sharded pipeline-parallel chiplet execution study",
    ),
    study(
        "chaos", chaos_study,
        study_model_arg("run the campaigns on", "conv stack"),
        shards_arg("chiplet shards of the deployment under fault"),
        batches_arg("micro-batches in each campaign stream"),
        arg(
            "--batch-size", type=positive_int, default=None,
            help="samples per micro-batch",
        ),
        arg(
            "--campaigns", type=positive_int, default=None,
            help="shard-death campaigns to sweep",
        ),
        FULL,
        SEED,
        overrides={
            "model": "model",
            "shards": "n_shards",
            "batches": "n_batches",
            "batch_size": "batch_size",
            "campaigns": "n_campaigns",
            "seed": "seed",
        },
        help="deterministic fault-injection campaign study",
    ),
    Command(
        "profile", "per-plan-node runtime profile of a zoo model", _cmd_profile,
        (
            arg(
                "model", nargs="?", default="resnet8", choices=_STUDY_MODELS,
                help="zoo model to profile (default: resnet8)",
            ),
            arg("--batch", type=positive_int, default=8, help="batch samples"),
            arg("--runs", type=positive_int, default=1, help="profiled executions"),
            arg(
                "--collapsed", metavar="PATH", default=None,
                help="also write folded flamegraph stacks to PATH",
            ),
            arg(
                "--metric", default="wall_us", choices=("wall_us", "chip_ns"),
                help="collapsed-stack metric",
            ),
            SEED,
        ),
    ),
    Command(
        "chiplets", "ROM vs SRAM chiplet assemblies", _cmd_chiplets,
        (zoo_arg("yolo"),),
    ),
    study(
        "runtime", runtime_study,
        study_model_arg("serve", "MLP"),
        FULL,
        overrides={"model": _serve_zoo},
        help="compile-once runtime amortization study",
    ),
    study("fig6b", fig6b, FULL),
    study("fig10", fig10, FULL),
    study("fig11", fig11, FULL),
    study("fig12", fig12, FULL),
    study("options", options_study, FULL),
    study("encoding", encoding_study, FULL),
    study("pingpong", pipeline_study, FULL),
    study("dusearch", du_search, FULL),
    study("subbit", related_work_quant, FULL),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="YOLoC (DAC'22) reproduction toolkit"
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0, dest="verbosity",
        help="log from the repro.* hierarchy (-v INFO, -vv DEBUG)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        cmd = sub.add_parser(command.name, help=command.help)
        for flags, kwargs in command.args:
            cmd.add_argument(*flags, **kwargs)
        cmd.set_defaults(func=command.handler)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verbosity:
        from repro.obs.log import configure

        configure(args.verbosity)
    try:
        return args.func(args)
    except SnapshotError as error:
        # A missing, damaged or stale artifact is an answer, not a crash.
        print(f"repro: {type(error).__name__}: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
