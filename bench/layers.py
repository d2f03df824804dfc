"""Which etfnc functions the traced run wraps, and the per-layer metrics.

Span names are ``<layer>.<qualname>``, where the layer is the etfnc
module. Every target yields ``<name>.calls``, ``<name>.s`` (inclusive
seconds) and ``<name>.self_s`` (minus wrapped children); the hooks add
the counts below, from which the ratio metrics are derived.
"""

import inspect
import os

from tracer import summarize

_FUNCTIONS = {
    "cli": ["main"],
    "etf": ["generate_etf"],
    "losses": ["softmax_probs", "ce_grad_feature", "dr_grad", "_batch_probs",
               "ce_batch_loss", "dr_batch_loss"],
    "peeled": ["optimize", "_feature_grads", "_project_rows", "project_ball",
               "init_features"],
    "regularity": ["run_regularity_experiment", "check_offclass_uniformity",
                   "paired_dominance_summary"],
    "metrics": ["nc_report", "class_and_global_means", "within_class_variability",
                "cosine_panels", "nc4_agreement"],
    "batches": ["FeatureBatch.class_rows", "FeatureBatch.__post_init__"],
    "trainer": ["train", "MlpBackbone.forward", "MlpBackbone.backward", "evaluate",
                "_features_for_metrics", "make_imbalanced_dataset"],
    "serialize": ["write_csv", "write_json", "sha256_file"],
}

#: span name -> "module:qualname"
TARGETS = {
    f"{layer}.{qualname}": f"etfnc.{layer}:{qualname}"
    for layer, qualnames in _FUNCTIONS.items()
    for qualname in qualnames
}


def _optimize(args, kwargs, result, counters):
    counters["peeled.optimize.steps"] += result.records[-1].step


def _regularity(args, kwargs, result, counters):
    import etfnc.regularity

    signature = inspect.signature(etfnc.regularity.run_regularity_experiment)
    trials = signature.bind(*args, **kwargs).arguments["trials"]
    counters["regularity.trials_attempted"] += trials
    counters["regularity.records_returned"] += len(result)


def _forward(args, kwargs, result, counters):
    counters["trainer.forward.rows"] += len(result[0])


def _train(args, kwargs, result, counters):
    _, train_set, test_set, config = args[:4]
    counters["trainer.minibatch_rows"] += train_set.size * config.epochs
    counters["trainer.eval_rows_distinct"] += (train_set.size + test_set.size) * config.epochs


def _written(layer_fn):
    """Payload bytes written; manifest.json is left out, its timestamp varies."""

    def hook(args, kwargs, result, counters):
        path = args[0]
        if os.path.basename(path) != "manifest.json":
            counters[f"{layer_fn}.bytes"] += os.path.getsize(path)
        if layer_fn == "serialize.write_csv" and os.path.basename(path) == "records.csv":
            counters["regularity.records_written"] += len(args[2])

    return hook


HOOKS = {
    "peeled.optimize": _optimize,
    "regularity.run_regularity_experiment": _regularity,
    "trainer.MlpBackbone.forward": _forward,
    "trainer.train": _train,
    "serialize.write_csv": _written("serialize.write_csv"),
    "serialize.write_json": _written("serialize.write_json"),
}

COUNTS = ("peeled.optimize.steps", "regularity.trials_attempted",
          "regularity.records_returned", "regularity.records_written",
          "trainer.forward.rows", "trainer.minibatch_rows", "trainer.eval_rows_distinct",
          "serialize.write_csv.bytes", "serialize.write_json.bytes")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, counters):
    """Flat ``{metric name: value}`` for one traced invocation."""
    out = {}
    for name, row in summarize(spans, TARGETS).items():
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.s"] = row["s"]
        out[f"{name}.self_s"] = row["self_s"]
    for name in COUNTS:
        out[name] = int(counters.get(name, 0))
    out["regularity.useful_frac"] = _ratio(
        out["regularity.records_written"], out["regularity.records_returned"])
    out["regularity.skipped_at_optimum"] = (
        out["regularity.trials_attempted"] - out["regularity.records_returned"])
    eval_forwarded = out["trainer.forward.rows"] - out["trainer.minibatch_rows"]
    out["trainer.eval_forward_useful_frac"] = _ratio(
        out["trainer.eval_rows_distinct"], eval_forwarded)
    return out


def is_count(name):
    """True for metrics that must repeat exactly between traced runs."""
    return not (name.endswith(".s") or name.endswith("_s"))
