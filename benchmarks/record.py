"""Run the benchmark over several seeds and record the reference file.

    python3 benchmarks/record.py [--workloads readme,deep-mixed,oracle]
                                 [--seeds 1-10] [--traces 2]

For each workload: one ``--trace 0`` run per seed, then ``--traces`` runs of
``--trace 1`` at the first seed. Writes ``benchmarks/reference.json``
(entries for other workloads are kept) with:

- the machine block and each workload's config, seed rule and reason;
- per seed, the sha256 of every checked artifact plus ``best_val_accuracy``
  and ``spearman_rho``, which ``bench.py`` compares against to report
  ``numerics_changed``; these quality numbers are recorded, not gated;
- per end-to-end metric, the values, median, quartiles and spread
  (``(q3 - q1) / median``, as ``statistics.quantiles(values, n=4)``), printed
  next to its bound from ``BENCHMARK.json``;
- the traced run's per-layer metrics, whether the computed counts repeated
  exactly across the traced runs, and the spread of the metrics kept out of
  the final JSON line (``oracle --jobs 2`` among them);
- the prediction table: which per-layer metric should move which end-to-end
  metric on which workload.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
import bench  # noqa: E402

PREDICTIONS = [
    {"per_layer": "tensor.{conv2d,conv1d,bn_train,relu,concat,pool_classify,xent}.{fwd,bwd}_s, "
                  "tensor.sgd_step_s, tensor.backward.tape_s, tensor.backward.nodes_per_step, tensor.conv.madds",
     "moves": "train_s on readme and deep-mixed; pipeline_s (through oracle --jobs 1) on oracle",
     "unmoved": "setup_s, generate_s, report_s"},
    {"per_layer": "tensor.*.fwd_s, tensor.bn_eval.fwd_s",
     "moves": "sample_eval_s on every workload",
     "unmoved": "setup_s, generate_s, report_s"},
    {"per_layer": "tensor.conv.window_bytes",
     "moves": "train_peak_rss_mb and sample_eval_peak_rss_mb, most on deep-mixed",
     "unmoved": "setup_s, generate_s, report_s"},
    {"per_layer": "model.forward_train_s, model.forward_eval_s, model.materialize_s, "
                  "model.recover_strategy_s, model.mult_adds_per_clip",
     "moves": "train_s and sample_eval_s, most on deep-mixed",
     "unmoved": "setup_s, generate_s, report_s"},
    {"per_layer": "gates.sample_concrete_s, gates.sample_hard_s, gates.objective_s",
     "moves": "train_s on deep-mixed; about 0 on readme",
     "unmoved": "everything else"},
    {"per_layer": "data.generate_s, data.save_s, data.load_s, data.split_s, data.batches_s, data.file_bytes",
     "moves": "generate_s on every workload, and the start of each later stage",
     "unmoved": "setup_s"},
    {"per_layer": "lab.warmup_epoch_s, lab.main_epoch_s, lab.template_accuracy_s, lab.epoch_nll_s",
     "moves": "train_s on every workload",
     "unmoved": "sample_eval_s, report_s"},
    {"per_layer": "lab.evaluate_strategy_s, lab.strategies_evaluated, lab.distinct_strategies, lab.distinct_share",
     "moves": "sample_eval_s: dedup saves at most 1 - lab.distinct_share of it "
              "(0.76 on readme at seed 1, about 0.1 on deep-mixed)",
     "unmoved": "train_s"},
    {"per_layer": "lab.train_standalone_s, lab.rank_correlation_s (oracle only)",
     "moves": "pipeline_s on oracle",
     "unmoved": "pipeline_s on readme and deep-mixed"},
    {"per_layer": "cli.import_s, cli.import_scipy_s",
     "moves": "setup_s and report_s on every workload, and every stage by the same amount",
     "unmoved": "nothing: every stage pays the import"},
    {"per_layer": "cli.oracle_task_bytes, cli.oracle_parallel_speedup (oracle only)",
     "moves": "cli.oracle_jobs2_s only",
     "unmoved": "cli.oracle_jobs1_s, every end-to-end metric"},
]

MOVED_METRICS = {
    "failed_ops": "reported as the final line's attempted/failed counts, not as a metric: "
                  "a metric must never read 0",
    "generate_s, report_s": "printed by --trace 0 and recorded here with their spread, not "
                            "gated: each is ~1 s, nearly all interpreter start-up and imports "
                            "(setup_s gates that), and one sample per run spread 0.10-0.24 "
                            "across runs on a 2-vCPU host even as a median of 3; their own work "
                            "is gated nowhere but traced as data.*, lab.report_s",
    "oracle_jobs1_s": "only the oracle workload runs the oracle, and every workload must print "
                      "every end-to-end metric; it is the largest part of pipeline_s on oracle "
                      "(config to rho.json), printed by --trace 0 and as cli.oracle_jobs1_s by "
                      "--trace 1",
    "oracle_jobs2_s": "oracle only, and unsteady (BLAS oversubscription); printed as "
                      "cli.oracle_jobs2_s by --trace 1 on oracle, spread recorded here",
    "oracle_peak_rss_mb": "oracle only; printed as cli.oracle_peak_rss_mb by --trace 1 on oracle",
    "per-workload per-layer metrics": "tensor.avg_pool.* (deep-mixed), lab.train_standalone_*, "
                                      "lab.rank_correlation_*, cli.oracle_* (oracle) and "
                                      "trace.{overhead,unattributed}.<stage>_s are printed by "
                                      "--trace 1 and recorded here, but are not in the final "
                                      "JSON line, which carries the same metrics on every workload",
}


def run(workload, seed, trace, seconds):
    cmd = [sys.executable, str(BENCH_DIR / "bench.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    result = json.loads((bench.WORK_ROOT / f"{workload}-seed{seed}-trace{trace}" / "result.json").read_text())
    if not line["correct"] or line["failed"]:
        raise SystemExit(f"{' '.join(cmd)}: incorrect run: {result['errors']}")
    print(f"{workload} seed={seed} trace={trace}: " + ", ".join(
        f"{k}={v['value']:.4g}" for k, v in list(line["metrics"].items())[:8]), flush=True)
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(bench.WORKLOADS))
    parser.add_argument("--seeds", default="1-10", type=seed_list)
    parser.add_argument("--traces", default=2, type=int)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    reference = json.loads(bench.REFERENCE_FILE.read_text()) if bench.REFERENCE_FILE.is_file() else {}
    reference["predictions"] = PREDICTIONS
    reference["moved_metrics"] = MOVED_METRICS
    for workload in args.workloads.split(","):
        results = [run(workload, seed, 0, spec["run_seconds"]) for seed in args.seeds]
        traces = [run(workload, args.seeds[0], 1, spec["run_seconds"]) for _ in range(args.traces)]
        reference["machine"] = results[0]["machine"]
        e2e = {}
        for name in bounds:
            e2e[name] = spread([r["metrics"][name] for r in results])
        not_gated = {name: spread([r["not_gated"][name] for r in results])
                     for name in results[0]["not_gated"]}
        counts = traces[0]["computed_counts"]
        only = sorted(traces[0]["workload_only"])
        reference.setdefault("workloads", {})[workload] = {
            "why": bench.WORKLOADS[workload]["why"],
            "stages": [cmd for _, cmd in bench.WORKLOADS[workload]["stages"]],
            "seed_rule": "--seed N sets schedule.seed, data.seed and sampling.seed to N",
            "config_at_first_seed": results[0]["config"],
            "seeds": args.seeds,
            "references": {
                str(r["seed"]): {"sha256": r["sha256"], **r["quality"],
                                 "draws": r["draws"], "distinct_draws": r["distinct_draws"]}
                for r in results
            },
            "end_to_end": e2e,
            "not_gated": not_gated,
            "per_layer_at_first_seed": traces[0]["metrics"],
            "computed_counts_repeat": all(
                t["metrics"][c] == traces[0]["metrics"][c] for t in traces for c in counts),
            "workload_only_per_layer": {
                name: spread([t["workload_only"][name] for t in traces]) if len(traces) > 1
                else traces[0]["workload_only"][name]
                for name in only
            },
            "stage_trace_at_first_seed": [t["stage_trace"] for t in traces],
        }
    bench.REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    for workload, entry in sorted(reference.get("workloads", {}).items()):
        for name, row in entry["end_to_end"].items():
            flag = "" if row["spread"] < bounds[name] / 3 else "  <-- above bound/3"
            print(f"{workload:11s} {name:24s} median={row['median']:10.4f} "
                  f"spread={row['spread']:.4f} bound={bounds[name]}{flag}")


if __name__ == "__main__":
    main()
