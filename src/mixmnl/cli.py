"""Command-line entry points.

One verb per artifact: ``generate`` a synthetic dataset, ``learn`` from a
dataset, ``evaluate`` results against ground truth, ``sweep`` error decay
over sample sizes, ``check`` model/graph conditioning, and ``ambiguity``
for the worked example of two mixtures that pairwise data cannot tell
apart.  Exit codes: 0 on success, 2 on validation problems, 3 when a
numerical stage fails.
"""

import functools
import json
import sys

import click
import numpy as np

from . import serialize
from .errors import NumericalError, ValidationError
from .graphs import erdos_renyi
from .model import marginally_identical_mixtures, random_uniform_model
from .pipeline import (
    ComponentEstimates,
    LearnConfig,
    check_conditions,
    evaluate,
    learn_mixed_mnl,
    run_sweep,
)


def _friendly_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ValidationError as err:
            click.echo(f"error: {err}", err=True)
            sys.exit(2)
        except NumericalError as err:
            stage = getattr(err, "stage", None)
            prefix = f"numerical failure in {stage}" if stage else "numerical failure"
            click.echo(f"{prefix}: {err}", err=True)
            sys.exit(3)

    return wrapper


@click.group()
def main():
    """Learn mixtures of MNL models from sparse pairwise comparisons."""


@main.command()
@click.option("--n", "n_items", type=int, required=True, help="Number of items.")
@click.option("--r", "n_components", type=int, default=2, show_default=True)
@click.option("--dbar", type=float, default=None, help="Mean degree (default log n).")
@click.option("--ell", type=int, required=True, help="Pairs per observation.")
@click.option("--samples", type=int, required=True, help="Number of observations.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_path", type=click.Path(), required=True)
@_friendly_errors
def generate(n_items, n_components, dbar, ell, samples, seed, out_path):
    """Sample a graph, a model, and observations into a dataset file."""
    if dbar is None:
        dbar = float(np.ceil(np.log(n_items)))
    rng = np.random.default_rng(seed)
    graph = erdos_renyi(n_items, dbar, rng)
    model = random_uniform_model(n_items, n_components, rng)
    batch = model.sample_batch(graph, ell, samples, rng)
    serialize.save_dataset(out_path, batch, model)
    click.echo(
        f"wrote {out_path}: n={n_items} pairs={graph.n_pairs} "
        f"ell={ell} samples={samples}"
    )


@main.command()
@click.option("--dataset", "dataset_path", type=click.Path(exists=True), required=True)
@click.option("--out", "out_path", type=click.Path(), required=True)
@click.option("--r", "n_components", type=int, required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--exact-moments", is_flag=True, help="Debug: use population moments.")
@click.option(
    "--dump-intermediates",
    is_flag=True,
    help="Also write moment-phase intermediates next to the results.",
)
@_friendly_errors
def learn(dataset_path, out_path, n_components, seed, exact_moments, dump_intermediates):
    """Estimate mixture, outcome means, and item weights from a dataset."""
    batch, model = serialize.load_dataset(dataset_path)
    if exact_moments and model is None:
        raise ValidationError("--exact-moments needs a dataset with ground truth")
    config = LearnConfig(
        n_components=n_components, seed=seed, exact_moments=exact_moments
    )
    estimates = learn_mixed_mnl(batch, config, model=model)
    serialize.save_results(out_path, estimates)
    if dump_intermediates:
        serialize.save_json(f"{out_path}.intermediates.json", estimates.diagnostics)
    click.echo(f"wrote {out_path}")


@main.command(name="evaluate")
@click.option("--dataset", "dataset_path", type=click.Path(exists=True), required=True)
@click.option("--results", "results_path", type=click.Path(exists=True), required=True)
@click.option("--out", "out_path", type=click.Path(), default=None)
@_friendly_errors
def evaluate_cmd(dataset_path, results_path, out_path):
    """Match results to a dataset's ground truth and report errors."""
    batch, model = serialize.load_dataset(dataset_path)
    if model is None:
        raise ValidationError("evaluation needs a dataset with ground truth")
    results = serialize.load_json(results_path, "results")
    try:
        estimates = ComponentEstimates(
            mixture=np.asarray(results["q_hat"], dtype=np.float64),
            weights=np.asarray(results["w_hat"], dtype=np.float64),
            outcome_matrix=np.asarray(results["p_hat"], dtype=np.float64),
            diagnostics=results.get("diagnostics", {}),
        )
    except (KeyError, TypeError, ValueError) as err:
        raise ValidationError(f"malformed results file: {err}") from err
    report = evaluate(estimates, model, graph=batch.graph, ell=batch.ell)
    if out_path is None:
        click.echo(json.dumps(serialize.jsonable(report), indent=2))
    else:
        serialize.save_json(out_path, report)
        click.echo(f"wrote {out_path}")


@main.command()
@click.option("--n", "n_items", type=int, required=True)
@click.option("--r", "n_components", type=int, default=2, show_default=True)
@click.option("--dbar", type=float, default=None, help="Mean degree (default log n).")
@click.option("--ell", type=int, required=True)
@click.option("--samples", default="2000,20000,200000", show_default=True)
@click.option("--seeds", default="0,1,2,3,4", show_default=True)
@click.option("--out", "out_path", type=click.Path(), required=True)
@_friendly_errors
def sweep(n_items, n_components, dbar, ell, samples, seeds, out_path):
    """Run the error-decay sweep and write a CSV of per-run and median errors."""
    if dbar is None:
        dbar = float(np.ceil(np.log(n_items)))
    sizes = [int(v) for v in str(samples).split(",") if v]
    seed_list = [int(v) for v in str(seeds).split(",") if v]
    rows = run_sweep(n_items, n_components, dbar, ell, sizes, seed_list, out_path)
    click.echo(f"wrote {out_path} ({len(rows)} rows)")


@main.command()
@click.option("--dataset", "dataset_path", type=click.Path(exists=True), required=True)
@click.option("--out", "out_path", type=click.Path(), default=None)
@_friendly_errors
def check(dataset_path, out_path):
    """Report conditioning diagnostics for a dataset's generating model."""
    batch, model = serialize.load_dataset(dataset_path)
    if model is None:
        raise ValidationError("condition checks need a dataset with ground truth")
    report = check_conditions(model, batch.graph, ell=batch.ell)
    if out_path is None:
        click.echo(json.dumps(serialize.jsonable(report), indent=2))
    else:
        serialize.save_json(out_path, report)
        click.echo(f"wrote {out_path}")


@main.command()
@_friendly_errors
def ambiguity():
    """Show two distinct mixtures with identical pairwise marginals."""
    (rankings_1, m1), (rankings_2, m2) = marginally_identical_mixtures()
    labels = "abcd"

    def fmt_rankings(rankings):
        return ", ".join(">".join(labels[i] for i in perm) for perm in rankings)

    click.echo(f"mixture 1: uniform over {{{fmt_rankings(rankings_1)}}}")
    click.echo(f"mixture 2: uniform over {{{fmt_rankings(rankings_2)}}}")
    for name, m in (("mixture 1", m1), ("mixture 2", m2)):
        click.echo(f"P(row preferred over column), {name}:")
        for row in m:
            click.echo("  " + "  ".join(f"{v:.2f}" for v in row))
    identical = bool(np.array_equal(m1, m2))
    click.echo(f"marginal matrices identical: {identical}")
    click.echo(
        "pairwise comparisons alone cannot distinguish these mixtures; "
        "recovery needs the spectral conditions to hold"
    )


if __name__ == "__main__":
    main()
