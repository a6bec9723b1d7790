"""The ``repro-campaign`` console entry point.

Runs seeded experiment campaigns from the command line.  Every mode is a
subcommand:

* ``table2`` reproduces the paper's Table II evaluation: the six RoboTack
  campaigns plus the DS-5 random baseline, printing the reproduced table and
  the §I headline findings;
* ``run --scenario DS-6 --attacker robotack --vector disappear`` runs a single
  custom campaign against any registered scenario and prints its summary row;
* ``sweep`` expands a declarative parameter space (``--param`` axes over
  ``variation.*`` / ``simulation.*`` / ``detector.*`` / ``fusion.*``) into
  one campaign per sweep point and records every run in the experiment store;
* ``search`` runs the closed-loop falsification engine: an adaptive sampler
  (cross-entropy, bandit, or random) steers sweep batches toward the
  attack-success boundary under a fixed simulation budget, checkpointing its
  state in the store so the same command resumes after any crash;
* ``train`` runs the safety-hijacker training pipeline for one
  (scenario, vector) pair: parallel, resumable dataset collection streamed
  into the store, training of the paper's 100-100-50 oracle, and publication
  into the store's content-addressed model registry — later campaigns against
  the same store load the pretrained oracle instead of retraining;
* ``resume`` finishes every interrupted campaign found in a store — the
  resumed statistics are bit-identical to an uninterrupted run;
* ``scenarios`` prints the registered scenario catalog.

A flag means the same thing on every subcommand that takes it: ``--jobs``
fans runs out over worker processes, ``--batch-size`` caps the runs of one
chunk (the work item: chunks are split across ``--jobs``, and each chunk's
runs advance in lockstep groups of at most ``repro.sim.batch.LOCKSTEP_LANES``;
results do not depend on the chunking), ``--store`` durably records every
run, and ``--fusion`` selects the fusion-policy victim variant (late,
camera_only, lidar_only, consistency_gated); on ``resume`` it filters the
store's incomplete campaigns instead.

Examples::

    repro-campaign table2 --runs 30 --jobs 4
    repro-campaign run --scenario DS-7 --attacker robotack --vector disappear --jobs -1
    repro-campaign run --scenario DS-1 --attacker none --store runs/ --runs 50
    repro-campaign run --scenario DS-1 --attacker none --fusion lidar_only --runs 20
    repro-campaign sweep --scenario DS-1 --store runs/ --sampler lhs --n 50 \\
        --param variation.lead_gap_offset_m=-8:8 --param detector.sigma_scale=1:2
    repro-campaign sweep --scenario DS-2 --store runs/ --sampler grid \\
        --param fusion.policy=late,lidar_only,consistency_gated \\
        --param fusion.camera_weight=0.4:0.8:3
    repro-campaign resume --store runs/ --jobs -1
    repro-campaign search --scenario DS-3 --attacker robotack --vector move_out \\
        --store runs/ --sampler ce --budget 300 --batch-points 8 --target 0.9
    repro-campaign train --scenario DS-2 --vector disappear --store runs/ --jobs -1
    repro-campaign scenarios
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

__all__ = ["main", "build_parser"]

#: The campaign-identity flags, in declaration order.
_IDENTITY = ("scenario", "attacker", "vector", "predictor", "fusion", "runs", "seed")


# ---------------------------------------------------------------------- #
# Shared flag groups: each flag is declared once, here
# ---------------------------------------------------------------------- #


def _add_campaign_args(
    parser: argparse.ArgumentParser,
    flags: Sequence[str] = _IDENTITY,
    *,
    runs: int = 10,
    seed: int = 2020,
    attacker: str = "robotack",
    vector_required: bool = False,
) -> None:
    """Declare the campaign-identity flags named in ``flags``.

    Per-command defaults are arguments here: every call creates its own
    Actions, so one subcommand's defaults never leak into another's.
    """
    group = parser.add_argument_group("campaign")
    if "scenario" in flags:
        group.add_argument("--scenario", required=True,
                           help="registered scenario id (see `repro-campaign scenarios`)")
    if "attacker" in flags:
        group.add_argument("--attacker", default=attacker,
                           help="attacker kind: robotack, robotack_no_sh, random, "
                           "none (default: %(default)s)")
    if "vector" in flags:
        group.add_argument("--vector", required=vector_required,
                           help="attack vector: disappear, move_out, move_in "
                           "(the robotack attackers need one)")
    if "predictor" in flags:
        group.add_argument("--predictor", default="neural",
                           help="safety-potential oracle: neural, kinematic "
                           "(default: %(default)s)")
    if "fusion" in flags:
        group.add_argument("--fusion",
                           help="fusion-policy victim variant: late, camera_only, "
                           "lidar_only, consistency_gated (default: the "
                           "scenario's own fusion, late)")
    if "runs" in flags:
        group.add_argument("--runs", type=int, default=runs,
                           help="simulation runs per campaign (default: %(default)s)")
    if "seed" in flags:
        group.add_argument("--seed", type=int, default=seed,
                           help="root seed (default: %(default)s)")


def _add_execution_args(parser: argparse.ArgumentParser, *, batch_size: bool = True) -> None:
    """Declare ``--jobs`` and, unless ``batch_size=False``, ``--batch-size``.

    The chunk default is the library's own (``run_campaign``'s).
    """
    group = parser.add_argument_group("execution")
    group.add_argument("--jobs", type=int, default=0,
                       help="worker processes (0/1 = serial, -1 = all CPUs)")
    if batch_size:
        from repro.experiments.campaign import DEFAULT_BATCH_SIZE

        group.add_argument("--batch-size", type=int, default=DEFAULT_BATCH_SIZE,
                           help="most runs per chunk, simulated in lockstep: the "
                           "work item and the unit a store checkpoints; a "
                           "campaign's runs are split into at least --jobs "
                           "chunks (default: %(default)s)")


def _add_store_arg(parser: argparse.ArgumentParser, *, required: bool = True) -> None:
    parser.add_argument("--store", required=required,
                        help="experiment-store root: durably records runs, "
                        "datasets, models and search checkpoints")


def _add_param_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--param", action="append", metavar="PATH=SPEC",
                        help="axis as namespace.field=low:high[:points] or "
                        "=v1,v2,... (repeatable; default: the ScenarioVariation "
                        "sampling ranges)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-campaign",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    table2 = subparsers.add_parser(
        "table2",
        help="reproduce the paper's Table II campaigns and headline findings",
        description=(
            "Run the six RoboTack campaigns of paper Table II plus the DS-5 "
            "random baseline, then print the reproduced table and the §I "
            "headline findings."
        ),
    )
    _add_campaign_args(table2, ("predictor", "fusion", "runs", "seed"))
    _add_execution_args(table2)
    _add_store_arg(table2, required=False)
    table2.set_defaults(handler=_run_table2)

    run = subparsers.add_parser(
        "run",
        help="run one campaign against any registered scenario",
        description=(
            "Run one seeded campaign (scenario, attacker, vector) and print its "
            "summary row."
        ),
    )
    _add_campaign_args(run)
    _add_execution_args(run)
    _add_store_arg(run, required=False)
    run.set_defaults(handler=_run_single_campaign)

    sweep = subparsers.add_parser(
        "sweep",
        help="expand a declarative parameter space into campaigns and run them",
        description=(
            "Expand a parameter space over variation.*, simulation.*, "
            "detector.*, and fusion.* axes into one campaign per sweep "
            "point, execute the batch, and durably record every run in the "
            "experiment store.  --fusion sets every point's base policy; "
            "fusion.* axes apply on top of it."
        ),
    )
    _add_campaign_args(sweep, runs=3, attacker="none")
    sweep.add_argument(
        "--sampler",
        default="lhs",
        choices=("grid", "random", "lhs"),
        help="how to sample the space; 'grid' enumerates the full cartesian "
        "product of the axes' grid points (size it per axis via "
        "low:high:points), ignoring --n/--sweep-seed with a warning",
    )
    sweep.add_argument(
        "--n", type=int, default=None,
        help="number of sweep points for random/lhs (default 50); the grid "
        "sampler's size is the product of its axis grid points and a "
        "mismatching --n only warns",
    )
    sweep.add_argument(
        "--sweep-seed", type=int, default=None,
        help="seed of the space sampler itself (random/lhs; default 0)",
    )
    _add_param_arg(sweep)
    _add_execution_args(sweep)
    _add_store_arg(sweep)
    sweep.add_argument(
        "--dry-run",
        action="store_true",
        help="print the expanded sweep points without executing them",
    )
    sweep.set_defaults(handler=_run_sweep)

    search = subparsers.add_parser(
        "search",
        help="adaptively search the parameter space for attack-success regions",
        description=(
            "Closed-loop falsification: an adaptive sampler (cross-entropy, "
            "bandit, or random) proposes batches of sweep points, the "
            "campaign runtime executes them into the store, an objective "
            "scores the recorded outcomes, and the scores steer the next "
            "batch toward the attack-success boundary.  The search "
            "checkpoints its sampler state in the store every iteration, so "
            "re-running the same command after a crash (even SIGKILL) "
            "resumes mid-iteration without re-proposing."
        ),
    )
    _add_campaign_args(search, runs=3)
    search.add_argument(
        "--sampler", default="ce",
        help="adaptive sampler: ce (cross-entropy), ucb / thompson "
        "(bandit over the discrete axes), random (baseline)",
    )
    search.add_argument(
        "--objective", default="attack_success",
        help="falsification objective: attack_success, time_to_violation, "
        "min_delta_margin",
    )
    search.add_argument(
        "--budget", type=int, default=300,
        help="total simulation-run budget across all iterations",
    )
    search.add_argument(
        "--batch-points", type=int, default=8,
        help="search points proposed per iteration",
    )
    search.add_argument(
        "--search-seed", type=int, default=0,
        help="seed of the adaptive sampler itself",
    )
    search.add_argument(
        "--target", type=float, default=None,
        help="stop early once any point's objective score reaches this "
        "value (in [0, 1])",
    )
    search.add_argument(
        "--max-iterations", type=int, default=None,
        help="cap the iterations executed by this invocation (resume later)",
    )
    _add_param_arg(search)
    _add_execution_args(search)
    _add_store_arg(search)
    search.set_defaults(handler=_run_search)

    train = subparsers.add_parser(
        "train",
        help="collect, train, and persist the safety-hijacker oracle",
        description=(
            "Run the end-to-end training pipeline for one (scenario, vector) "
            "pair: run the scripted-attack collection grid as lockstep batch "
            "chunks spread over worker processes (resumable via the store's "
            "dataset records), train the paper's 100-100-50 oracle, and "
            "publish it into the store's content-addressed model registry for "
            "later campaigns to load."
        ),
    )
    _add_campaign_args(train, ("scenario", "vector", "seed"), seed=7, vector_required=True)
    train.add_argument("--repeats", type=int, default=2,
                       help="simulations per (delta_inject, k) grid point")
    train.add_argument("--epochs", type=int, default=200,
                       help="training epochs")
    train.add_argument("--learning-rate", type=float, default=1e-3,
                       help="Adam learning rate")
    _add_execution_args(train, batch_size=False)
    _add_store_arg(train)
    train.add_argument(
        "--force",
        action="store_true",
        help="retrain even when the spec is already registered in the store",
    )
    train.set_defaults(handler=_run_train)

    resume = subparsers.add_parser(
        "resume",
        help="finish every interrupted campaign recorded in an experiment store",
        description=(
            "Scan the store manifests for campaigns with missing run indices, "
            "execute only the missing runs, and print the merged summaries — "
            "bit-identical to campaigns that were never interrupted.  With "
            "--fusion, only campaigns whose effective fusion policy matches "
            "are resumed (stored configs without a fusion override count as "
            "'late'); records do not depend on the chunking, so any "
            "--batch-size is safe."
        ),
    )
    _add_campaign_args(resume, ("fusion",))
    _add_execution_args(resume)
    _add_store_arg(resume)
    resume.set_defaults(handler=_run_resume)

    scenarios = subparsers.add_parser(
        "scenarios", help="print the registered scenario catalog",
    )
    scenarios.set_defaults(handler=_print_scenarios)
    return parser


# ---------------------------------------------------------------------- #
# Flag validation
# ---------------------------------------------------------------------- #


def _check_scenario(scenario_id: str) -> None:
    from repro.sim.scenarios import list_scenario_ids

    if scenario_id not in list_scenario_ids():
        raise SystemExit(
            f"unknown scenario {scenario_id!r}; available: {list_scenario_ids()}"
        )


def _parse_choice(kind, value: str, what: str):
    """Convert a flag value into the enum ``kind`` with a one-line error."""
    try:
        return kind(value)
    except ValueError:
        raise SystemExit(
            f"unknown {what} {value!r}; choose from {[member.value for member in kind]}"
        ) from None


def _parse_vector(name: str):
    from repro.core.attack_vectors import AttackVector

    try:
        return AttackVector.from_string(name)
    except ValueError as error:
        raise SystemExit(str(error)) from None


def _parse_fusion(policy: Optional[str]):
    """Convert ``--fusion POLICY`` into a FusionConfig (or None when unset)."""
    from repro.perception.fusion import FusionConfig, list_fusion_policies

    if policy is None:
        return None
    if policy not in list_fusion_policies():
        raise SystemExit(
            f"unknown fusion policy {policy!r}; choose from {list_fusion_policies()}"
        )
    return FusionConfig(policy=policy)


def _parse_space(args: argparse.Namespace):
    """The ``--param`` axes as a ParameterSpace (``None`` when none given)."""
    from repro.sim.sweeps import ParameterSpace, parse_axis

    if not args.param:
        return None
    try:
        return ParameterSpace(dict(parse_axis(axis) for axis in args.param))
    except ValueError as error:
        raise SystemExit(str(error)) from None


def _base_config(args: argparse.Namespace, suffix: str):
    """The campaign the identity flags describe, id ``<scenario>-<Vector>-<suffix>``."""
    from repro.core.attack_vectors import AttackVector
    from repro.experiments.campaign import AttackerKind, CampaignConfig, PredictorKind

    _check_scenario(args.scenario)
    attacker = _parse_choice(AttackerKind, args.attacker, "attacker")
    vector = _parse_vector(args.vector) if args.vector is not None else None
    predictor = _parse_choice(PredictorKind, args.predictor, "predictor")
    if vector is None and attacker in (AttackerKind.ROBOTACK, AttackerKind.ROBOTACK_NO_SH):
        raise SystemExit(
            f"attacker {attacker.value!r} needs an attack vector; pass "
            f"--vector {{{', '.join(v.name.lower() for v in AttackVector)}}}"
        )
    fusion = _parse_fusion(args.fusion)
    vector_label = vector.name.title() if vector is not None else attacker.value.title()
    try:
        return CampaignConfig(
            campaign_id=f"{args.scenario}-{vector_label}-{suffix}",
            scenario_id=args.scenario,
            attacker=attacker,
            vector=vector,
            n_runs=args.runs,
            seed=args.seed,
            predictor=predictor,
            fusion=fusion,
        )
    except ValueError as error:
        raise SystemExit(str(error)) from None


# ---------------------------------------------------------------------- #
# Subcommand handlers
# ---------------------------------------------------------------------- #


def _print_scenarios(args: argparse.Namespace) -> None:
    from repro.sim.scenarios import scenario_catalog

    print("Registered driving scenarios:")
    for scenario_id, description in scenario_catalog().items():
        print(f"  {scenario_id:<6s} {description}")


def _run_table2(args: argparse.Namespace) -> None:
    import dataclasses

    from repro.experiments.campaign import (
        PredictorKind,
        baseline_random_campaign,
        run_campaigns,
        standard_campaigns,
    )
    from repro.experiments.metrics import summarize_campaign
    from repro.experiments.tables import headline_findings

    predictor = _parse_choice(PredictorKind, args.predictor, "predictor")
    fusion = _parse_fusion(args.fusion)
    try:
        configs = [
            *standard_campaigns(n_runs=args.runs, seed=args.seed, predictor=predictor),
            baseline_random_campaign(n_runs=args.runs, seed=args.seed),
        ]
    except ValueError as error:
        raise SystemExit(str(error)) from None
    if fusion is not None:
        configs = [dataclasses.replace(config, fusion=fusion) for config in configs]
    print(
        f"Running {len(configs)} campaigns x {args.runs} runs "
        f"(jobs={args.jobs}, seed={args.seed}) ..."
    )
    results = run_campaigns(
        configs,
        executor=args.jobs,
        store=args.store,
        batch_size=args.batch_size,
    )
    print("\n=== Table II (reproduced) ===")
    for campaign in results:
        print(summarize_campaign(campaign).format_row())
    findings = headline_findings(results[:-1], results[-1])
    print("\n=== Headline findings (paper §I) ===")
    print(f"RoboTack EB rate      : {findings['robotack_eb_rate']:.1%} (paper 75.2%)")
    print(f"RoboTack crash rate   : {findings['robotack_crash_rate']:.1%} (paper 52.6%)")
    print(f"Random baseline EB    : {findings['random_eb_rate']:.1%} (paper 2.3%)")
    print(
        f"Pedestrians vs vehicles: {findings['pedestrian_success_rate']:.1%} "
        f"vs {findings['vehicle_success_rate']:.1%} (paper 84.1% vs 31.7%)"
    )


def _run_single_campaign(args: argparse.Namespace) -> None:
    from repro.experiments.campaign import run_campaign
    from repro.experiments.metrics import summarize_campaign

    config = _base_config(args, "cli")
    print(f"Running {config.campaign_id}: {args.runs} runs (jobs={args.jobs}) ...")
    result = run_campaign(
        config,
        executor=args.jobs,
        store=args.store,
        batch_size=args.batch_size,
    )
    print(summarize_campaign(result).format_row())


def _run_sweep(args: argparse.Namespace) -> None:
    from repro.experiments.campaign import run_campaigns
    from repro.experiments.metrics import summarize_campaign
    from repro.sim.sweeps import sweep_campaigns

    base = _base_config(args, "sweep")
    space = _parse_space(args)
    try:
        configs = sweep_campaigns(
            base, space, sampler=args.sampler, n=args.n, seed=args.sweep_seed
        )
    except ValueError as error:
        raise SystemExit(str(error)) from None
    if args.dry_run:
        print(f"Sweep of {len(configs)} points ({args.sampler}):")
        for config in configs:
            print(f"  {config.campaign_id}")
        return
    print(
        f"Sweeping {len(configs)} points x {args.runs} runs "
        f"({args.sampler}, jobs={args.jobs}) into {args.store} ..."
    )
    results = run_campaigns(
        configs,
        executor=args.jobs,
        store=args.store,
        batch_size=args.batch_size,
    )
    for result in results:
        print(summarize_campaign(result).format_row())


def _run_search(args: argparse.Namespace) -> None:
    from repro.experiments.store import ExperimentStore
    from repro.experiments.tables import search_report_from_store
    from repro.search import (
        FalsificationLoop,
        SearchSpec,
        list_objectives,
        list_search_samplers,
    )
    from repro.sim.sweeps import default_variation_space

    base = _base_config(args, "search")
    if args.sampler not in list_search_samplers():
        raise SystemExit(
            f"unknown search sampler {args.sampler!r}; "
            f"choose from {list_search_samplers()}"
        )
    if args.objective not in list_objectives():
        raise SystemExit(
            f"unknown objective {args.objective!r}; "
            f"choose from {list_objectives()}"
        )
    space = _parse_space(args)
    if space is None:
        space = default_variation_space()
    try:
        spec = SearchSpec(
            base=base,
            space=space,
            sampler=args.sampler,
            objective=args.objective,
            budget_runs=args.budget,
            batch_points=args.batch_points,
            seed=args.search_seed,
            target_score=args.target,
        )
        loop = FalsificationLoop(
            spec,
            ExperimentStore(args.store),
            executor=args.jobs,
            batch_size=args.batch_size,
        )
    except ValueError as error:
        raise SystemExit(str(error)) from None
    resuming = loop.store.load_search_state(loop.search_hash) is not None
    print(
        f"{'Resuming' if resuming else 'Starting'} search {loop.search_hash[:12]}: "
        f"{args.sampler}/{args.objective} over {len(space)} axes, "
        f"budget {args.budget} runs ({args.batch_points} points x {args.runs} "
        f"runs per iteration, jobs={args.jobs}) into {args.store} ..."
    )
    result = loop.run(max_iterations=args.max_iterations)
    print(f"\n=== Search report ({loop.search_hash[:12]}) ===")
    print("iter points runs_spent    elite     best  best-so-far")
    for row in search_report_from_store(loop.store, loop.search_hash):
        print(row.format_row())
    print(
        f"\nBest score {result.best_score:.3f} "
        f"({args.objective}) after {result.runs_spent} runs"
        + (" — target reached" if result.reached_target else "")
    )
    if result.best_assignment:
        print("Best assignment:")
        for path, value in sorted(result.best_assignment.items()):
            print(f"  {path} = {value}")
    if result.elite_front:
        print("Elite front (last iteration):")
        for point in result.elite_front:
            rendered = ", ".join(
                f"{path}={value}" for path, value in sorted(point.assignment.items())
            )
            print(f"  score {point.score:.3f}: {rendered}")


def _loss_curve_report(train_loss: List[float], validation_loss: List[float]) -> str:
    """A compact per-epoch loss table (first epoch, ~10 waypoints, last epoch)."""
    n_epochs = len(train_loss)
    step = max(1, n_epochs // 10)
    picked = sorted(set(range(0, n_epochs, step)) | {n_epochs - 1})
    lines = ["  epoch   train loss   validation loss"]
    for epoch in picked:
        lines.append(
            f"  {epoch + 1:>5d}   {train_loss[epoch]:>10.4f}   {validation_loss[epoch]:>15.4f}"
        )
    return "\n".join(lines)


def _run_train(args: argparse.Namespace) -> None:
    from repro.core.training import (
        check_training_spec,
        train_and_register_predictor,
        training_spec_hash,
    )
    from repro.experiments.campaign import (
        CampaignConfig,
        oracle_spec_hash,
        training_grid_for,
    )
    from repro.experiments.store import ExperimentStore

    _check_scenario(args.scenario)
    vector = _parse_vector(args.vector)
    try:
        check_training_spec(args.seed, args.repeats, args.epochs, args.learning_rate)
    except ValueError as error:
        raise SystemExit(str(error)) from None
    store = ExperimentStore(args.store)
    delta_grid, k_grid = training_grid_for(args.scenario)
    spec_hash = training_spec_hash(
        args.scenario, vector, delta_grid, k_grid,
        collect_seed=args.seed, repeats=args.repeats, epochs=args.epochs,
        learning_rate=args.learning_rate,
    )
    auto_loaded = spec_hash == oracle_spec_hash(args.scenario, vector)
    if not auto_loaded:
        # The model is still registered and loadable by hash; campaigns just
        # resolve a different spec and would train their own oracle.
        print(
            "note: campaigns look up oracles trained with --seed 7 --repeats 2 "
            f"--epochs {CampaignConfig.training_epochs} --learning-rate 1e-3; "
            "this model will not be auto-loaded by `repro-campaign run --store` runs."
        )
    if not args.force:
        # Existence check only — don't deserialize the weights just to
        # discard them; the report below comes from the registry metadata.
        model_hash = store.resolve_model_spec(spec_hash)
        if model_hash is not None and store.has_model(model_hash):
            metadata = store.load_model_metadata(model_hash)
            print(
                f"Already trained: {args.scenario}/{vector.name} is registered as "
                f"model {model_hash[:12]} ({metadata['n_samples']} samples, "
                f"{metadata['epochs']} epochs); pass --force to retrain."
            )
            print(_loss_curve_report(metadata["train_loss"], metadata["validation_loss"]))
            return
    n_points = len(delta_grid) * len(k_grid) * args.repeats
    print(
        f"Collecting {n_points} scripted-attack grid points for "
        f"{args.scenario}/{vector.name} (jobs={args.jobs}, seed={args.seed}) "
        f"into {args.store} ..."
    )
    artifact = train_and_register_predictor(
        args.scenario, vector, delta_grid, k_grid,
        seed=args.seed, repeats=args.repeats, epochs=args.epochs,
        learning_rate=args.learning_rate, executor=args.jobs, store=store,
    )
    history = artifact.training.history
    print(
        f"Collected {artifact.dataset.n_samples} samples "
        f"(dataset {artifact.dataset_hash[:12]}); trained "
        f"{artifact.predictor.network.num_parameters()} parameters for "
        f"{args.epochs} epochs ({artifact.training.n_train_samples}/"
        f"{artifact.training.n_validation_samples} train/validation split)."
    )
    print(_loss_curve_report(history.train_loss, history.validation_loss))
    print(f"Registered model {artifact.model_hash[:12]} at {artifact.model_dir}")
    if auto_loaded:
        print(
            f"Campaigns against this store now load the pretrained oracle, e.g.\n"
            f"  repro-campaign run --scenario {args.scenario} --attacker robotack "
            f"--vector {vector.name.lower()} --store {args.store}"
        )


def _run_resume(args: argparse.Namespace) -> None:
    from pathlib import Path

    from repro.experiments.campaign import run_campaign
    from repro.experiments.metrics import summarize_campaign
    from repro.experiments.store import ExperimentStore
    from repro.runtime.executor import resolve_executor

    if not Path(args.store).expanduser().is_dir():
        # A mistyped path must not masquerade as "every campaign complete".
        raise SystemExit(f"no experiment store at {args.store!r} (directory not found)")
    fusion = _parse_fusion(args.fusion)
    store = ExperimentStore(args.store)
    try:
        worklist = store.incomplete_campaigns()
    except ValueError as error:  # an unreadable manifest (newer schema, bad seed)
        raise SystemExit(f"cannot resume {args.store}: {error}") from None
    if fusion is not None:
        worklist = [
            (config, missing)
            for config, missing in worklist
            if config.fusion_policy == fusion.policy
        ]
        if not worklist:
            print(
                f"Nothing to resume: no incomplete campaign in {args.store} "
                f"runs the {fusion.policy!r} fusion policy."
            )
            return
    if not worklist:
        print(f"Nothing to resume: every campaign in {args.store} is complete.")
        return
    executor = resolve_executor(args.jobs)
    try:
        for config, missing in worklist:
            print(
                f"Resuming {config.campaign_id}: "
                f"{len(missing)} of {config.n_runs} runs missing ..."
            )
            result = run_campaign(
                config,
                executor=executor,
                store=store,
                batch_size=args.batch_size,
            )
            print(summarize_campaign(result).format_row())
    finally:
        executor.close()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "runs", 1) < 1:
        raise SystemExit("--runs must be a positive number of simulation runs")
    if getattr(args, "jobs", 0) < -1:
        raise SystemExit("--jobs must be -1 (all CPUs), 0/1 (serial), or a worker count")
    if getattr(args, "batch_size", 1) < 1:
        raise SystemExit("--batch-size must be a positive number of lockstep runs")
    args.handler(args)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
