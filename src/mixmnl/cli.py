"""Command-line entry points.

One verb per artifact: ``generate`` a synthetic dataset, ``learn`` from a
dataset, ``evaluate`` results against ground truth, ``sweep`` error decay
over sample sizes, ``check`` model/graph conditioning, and ``ambiguity``
for the worked example of two mixtures that pairwise data cannot tell
apart.  Exit codes: 0 on success, 2 on validation problems and
filesystem errors, 3 when a numerical stage fails.  ``learn`` also writes
one ``warning:`` line to stderr for each suspect diagnostic of its fit.
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
    LearnConfig,
    check_conditions,
    evaluate,
    learn_mixed_mnl,
    run_sweep,
    seeded_rng,
)


_INPUT_FILE = click.Path(exists=True, dir_okay=False)


def _friendly_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ValidationError, OSError) as err:
            click.echo(f"error: {err}", err=True)
            sys.exit(2)
        except NumericalError as err:
            prefix = f"numerical failure in {err.stage}" if err.stage else "numerical failure"
            click.echo(f"{prefix}: {err}", err=True)
            sys.exit(3)

    return wrapper


def _count_list(text, option):
    """Comma-separated non-negative integers, such as "2000,20000"; at least one."""
    try:
        values = [int(v) for v in text.split(",") if v]
    except ValueError:
        values = []
    if not values or min(values) < 0:
        raise ValidationError(
            f"{option} needs a comma-separated list of non-negative integers, got {text!r}"
        )
    return values


def _mean_degree(dbar, n_items):
    """``--dbar``, or by default ceil(log n); the graph's own check rejects n < 2."""
    return float(np.ceil(np.log(max(n_items, 1)))) if dbar is None else dbar


def _load_dataset(path, truth_for=None):
    """A dataset file's (batch, model); ``truth_for`` names a use that needs the model."""
    batch, model = serialize.load_dataset(path)
    if truth_for and model is None:
        raise ValidationError(f"{truth_for} needs a dataset with ground truth")
    return batch, model


def _report(report, out_path):
    """Print ``report`` as JSON, or write it to ``out_path`` if one is given."""
    if out_path is None:
        click.echo(json.dumps(serialize.jsonable(report), indent=2))
    else:
        serialize.save_json(out_path, report)
        click.echo(f"wrote {out_path}")


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
    rng = seeded_rng(seed)
    graph = erdos_renyi(n_items, _mean_degree(dbar, n_items), rng)
    model = random_uniform_model(n_items, n_components, rng)
    batch = model.sample_batch(graph, ell, samples, rng)
    serialize.save_dataset(out_path, batch, model)
    click.echo(
        f"wrote {out_path}: n={n_items} pairs={graph.n_pairs} "
        f"ell={ell} samples={samples}"
    )


@main.command()
@click.option("--dataset", "dataset_path", type=_INPUT_FILE, required=True)
@click.option("--out", "out_path", type=click.Path(), required=True)
@click.option("--r", "n_components", type=int, required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--exact-moments", is_flag=True, help="Debug: use population moments.")
@_friendly_errors
def learn(dataset_path, out_path, n_components, seed, exact_moments):
    """Estimate mixture, outcome means, and item weights from a dataset."""
    batch, model = _load_dataset(dataset_path, "--exact-moments" if exact_moments else None)
    config = LearnConfig(
        n_components=n_components, seed=seed, exact_moments=exact_moments
    )
    estimates = learn_mixed_mnl(batch, config, model=model)
    serialize.save_results(out_path, estimates)
    click.echo(f"wrote {out_path}")
    for key, text in (
        ("mixture_sum_suspect", "the mixture proportions sum to {mixture_sum:.3g}, far from 1"),
        ("tensor_used_pinv", "the whitened tensor solve fell back to a pseudo-inverse"),
    ):
        if estimates.diagnostics[key]:
            click.echo(f"warning: {key}: {text.format(**estimates.diagnostics)}", err=True)


@main.command(name="evaluate")
@click.option("--dataset", "dataset_path", type=_INPUT_FILE, required=True)
@click.option("--results", "results_path", type=_INPUT_FILE, required=True)
@click.option("--out", "out_path", type=click.Path(), default=None)
@_friendly_errors
def evaluate_cmd(dataset_path, results_path, out_path):
    """Match results to a dataset's ground truth and report errors."""
    batch, model = _load_dataset(dataset_path, "evaluation")
    estimates = serialize.load_results(results_path)
    _report(evaluate(estimates, model, graph=batch.graph, ell=batch.ell), out_path)


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
    sizes = _count_list(samples, "--samples")
    seed_list = _count_list(seeds, "--seeds")
    dbar = _mean_degree(dbar, n_items)
    rows = run_sweep(n_items, n_components, dbar, ell, sizes, seed_list, out_path)
    click.echo(f"wrote {out_path} ({len(rows)} rows)")


@main.command()
@click.option("--dataset", "dataset_path", type=_INPUT_FILE, required=True)
@click.option("--out", "out_path", type=click.Path(), default=None)
@_friendly_errors
def check(dataset_path, out_path):
    """Report conditioning diagnostics for a dataset's generating model."""
    batch, model = _load_dataset(dataset_path, "a condition check")
    _report(check_conditions(model, batch.graph, ell=batch.ell), out_path)


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
