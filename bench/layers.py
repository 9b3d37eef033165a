"""The per-layer metrics of the traced run: which public function of which
module each one wraps, and how a traced iteration turns into numbers.

Times are inclusive: the summed duration of every call to the wrapped
function (threads add up, so a threaded stage can exceed wall time).  The
written spans keep parents, so self times can be derived from them.
"""

from __future__ import annotations

import math

from tracer import Target, Tracer


def _gibbs_done(tr, a, chain):
    spec = a["spec"]
    tr.add("blvs.sweeps", spec.length + spec.burn_in)
    tr.add_distinct("blvs.distinct_models", (st.gamma.tobytes() for st in chain))


def _log_weights_done(tr, a, result):
    # the stack entry of log_weights is already popped, so the caller shows
    if tr.caller() == "surface.terms_calls":
        tr.add("surface.terms_misses", 1)


def _suite_label(fn_name):
    if fn_name == "suite_v2_variance_validation":
        return lambda a: f"validate.v2_{a['variant']}_s"
    return lambda a: f"validate.{fn_name.split('_')[1]}_s"


def _suite_done(tr, a, result):
    tr.add("validate.replicates", a.get("reps", 1))


def _targets() -> list[Target]:
    t = [
        Target("priorsweep.cli", "load_config", "config.load_s"),
        Target("priorsweep.blvs:BlvsFamily", "gibbs_run", "blvs.gibbs_s",
               after=_gibbs_done),
        Target("priorsweep.blvs:BlvsFamily", "weight_stats", "blvs.weight_stats_s"),
        Target("priorsweep.blvs:ModelEnumeration", "__init__",
               "blvs.enumeration_build_s",
               after=lambda tr, a, r: tr.add("blvs.models_enumerated",
                                             2 ** a["family"].q)),
        Target("priorsweep.blvs:ModelEnumeration", "log_marginal", "blvs.oracle_grid_s"),
        Target("priorsweep.blvs:ModelEnumeration", "inclusion_probs", "blvs.oracle_grid_s"),
        Target("priorsweep.cli", "build_log_weight_matrix", "ratio.weight_matrix_s"),
        Target("priorsweep.validate", "build_log_weight_matrix", "ratio.weight_matrix_s"),
        Target("priorsweep.ratio", "estimate_sigma", "ratio.estimate_sigma_s"),
        Target("priorsweep.surface:Stage2Workspace", "__init__", "surface.workspace_s"),
        Target("priorsweep.cli", "surface", "surface.point_estimates_s"),
        Target("priorsweep.surface:Stage2Workspace", "terms", "surface.terms_calls",
               kind="count"),
        Target("priorsweep.blvs:BlvsFamily", "log_weights", "log_weights_calls",
               kind="count", after=_log_weights_done),
        Target("priorsweep.families:ConjugateToy", "log_weights", "log_weights_calls",
               kind="count", after=_log_weights_done),
        Target("priorsweep.cli", "attach_standard_errors", "variance.se_s"),
        Target("priorsweep.variance", "spectral_lrv", "variance.lrv_s", kind="leaf"),
        Target("priorsweep.variance", "lrv_matrix", "variance.lrv_s", kind="leaf"),
        Target("priorsweep.ratio", "lrv_matrix", "variance.lrv_s", kind="leaf"),
        Target("priorsweep.families:ConjugateToy", "sample_posterior",
               "families.toy_sample_s",
               after=lambda tr, a, r: tr.add("families.toy_draws",
                                             a["spec"].length + a["spec"].burn_in)),
        Target("priorsweep.cli", "_write_surface_csv", "cli.write_s"),
        Target("priorsweep.cli", "_write_variance_csv", "cli.write_s"),
        Target("priorsweep.cli", "_write_chain_csv", "cli.write_s"),
        Target("priorsweep.ratio:RatioEstimate", "save", "cli.write_s"),
    ]
    for namespace in ("priorsweep.ratio", "priorsweep.validate"):
        t.append(Target(namespace, "estimate_d", "ratio.estimate_d_s",
                        after=lambda tr, a, r: tr.add("ratio.newton_iterations",
                                                      r[1]["iterations"])))
    for fn_name in ("suite_v1_ratio_calibration", "suite_v2_variance_validation",
                    "suite_v3_exact_identities", "suite_v4_cv_reduction"):
        t.append(Target("priorsweep.validate", fn_name, "validate.suite_s",
                        label=_suite_label(fn_name), after=_suite_done))
    return t


def make_tracer() -> Tracer:
    return Tracer(_targets())


# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "config.load_s": "s",
    "blvs.gibbs_s": "s",
    "blvs.sweeps": "count",
    "blvs.us_per_sweep": "us",
    "blvs.distinct_models": "count",
    "blvs.weight_stats_s": "s",
    "blvs.enumeration_build_s": "s",
    "blvs.models_enumerated": "count",
    "blvs.oracle_grid_s": "s",
    "ratio.weight_matrix_s": "s",
    "ratio.estimate_d_s": "s",
    "ratio.newton_iterations": "count",
    "ratio.estimate_sigma_s": "s",
    "surface.workspace_s": "s",
    "surface.point_estimates_s": "s",
    "surface.terms_calls": "count",
    "surface.terms_hit_ratio": "ratio",
    "variance.se_s": "s",
    "variance.lrv_calls": "count",
    "variance.lrv_s": "s",
    "families.toy_sample_s": "s",
    "families.toy_draws": "count",
    "validate.v1_s": "s",
    "validate.v2_iid_s": "s",
    "validate.v2_ar1_s": "s",
    "validate.v3_s": "s",
    "validate.v4_s": "s",
    "validate.replicates": "count",
    "cli.write_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_frac": "ratio",
}


def iteration_metrics(tr: Tracer, output_bytes: int) -> dict[str, float]:
    """Per-layer numbers of one traced iteration (overhead is added later)."""
    m = {name: tr.span_seconds(name) for name, unit in PER_LAYER.items() if unit == "s"}
    for name in ("blvs.sweeps", "blvs.models_enumerated", "ratio.newton_iterations",
                 "families.toy_draws", "validate.replicates"):
        m[name] = tr.counts.get(name, 0.0)
    m["blvs.distinct_models"] = float(len(tr.distinct.get("blvs.distinct_models", ())))
    m["blvs.us_per_sweep"] = (1e6 * m["blvs.gibbs_s"] / m["blvs.sweeps"]
                              if m["blvs.sweeps"] else 0.0)
    terms = tr.calls("surface.terms_calls")
    m["surface.terms_calls"] = float(terms)
    m["surface.terms_hit_ratio"] = (1.0 - tr.counts.get("surface.terms_misses", 0.0) / terms
                                    if terms else 0.0)
    m["variance.lrv_calls"] = float(tr.calls("variance.lrv_s"))
    m["cli.output_bytes"] = float(output_bytes)
    return m


def not_exercised(metrics_per_iteration: list[dict]) -> list[str]:
    """Per-layer metrics that read 0 in every traced iteration: the workload
    never entered that layer (or the wrapped name is absent)."""
    return sorted(name for name in PER_LAYER
                  if name != "trace.overhead_frac"
                  and all(not m.get(name) or math.isnan(m[name])
                          for m in metrics_per_iteration))
