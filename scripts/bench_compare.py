#!/usr/bin/env python3
"""Perf-regression gate: diff fresh bench artifacts against checked-in baselines.

Usage:
    scripts/bench_compare.py <baseline_dir> <fresh_dir> [--tolerance-pct N]

Compares the bench JSON artifacts the perf CI stage produces
(BENCH_analysis.json, BENCH_contention.json, BENCH_intern.json,
BENCH_kernels.json, BENCH_service.json, BENCH_symval.json) against the
baselines under bench/baselines/. Exits nonzero, listing every violated
metric, when the fresh run regressed.

Only machine-portable metrics are gated. Raw wall-clock milliseconds are
deliberately never compared across runs — CI machines differ in clock speed
and load, so "serial_ms grew 30%" says nothing. What does transfer:

  * ratios measured within one process run (the batched engine at jobs=N
    over jobs=1, cold over warm, the profiler's on/off overhead percentage)
    — both legs see the same machine, so the quotient is stable;
  * exact structural counts (workload size, proof- and phase-memo hits and
    misses of a serial pass, memoized region counts, differential agreement
    verdicts), which must not drift at all.

The default --tolerance-pct 40 absorbs scheduler noise in the ratio metrics
(shared-runner throughput drifts between legs — observed swing is ~35%); a
halved ratio, the kind of regression the gate exists for, still trips it.
Structural metrics get no tolerance.
"""

import argparse
import json
import os
import sys


class Gate:
    """Collects per-metric verdicts; fails the process if any regressed."""

    def __init__(self):
        self.failures = []

    def check(self, ok, label, detail):
        line = f"{label}: {detail}"
        if ok:
            print(f"  ok          {line}")
        else:
            print(f"  REGRESSION  {line}")
            self.failures.append(line)

    def exact(self, label, baseline, fresh):
        self.check(baseline == fresh, label, f"baseline {baseline!r}, fresh {fresh!r}")

    def ratio_floor(self, label, baseline, fresh, tolerance_pct):
        """Fresh ratio may trail baseline by at most tolerance_pct percent."""
        floor = baseline * (1.0 - tolerance_pct / 100.0)
        self.check(
            fresh >= floor, label,
            f"baseline {baseline:.3f}, fresh {fresh:.3f}, floor {floor:.3f} "
            f"(-{tolerance_pct}%)")

    def abs_ceiling(self, label, fresh, ceiling, context):
        self.check(fresh <= ceiling, label,
                   f"fresh {fresh:.3f} must stay <= {ceiling:.3f} ({context})")


def compare_analysis(gate, baseline, fresh, tolerance_pct):
    gate.exact("analysis.schema", baseline["schema"], fresh["schema"])
    gate.exact("analysis.workload.configs", baseline["workload"]["configs"],
               fresh["workload"]["configs"])
    gate.exact("analysis.workload.codes", baseline["workload"]["codes"],
               fresh["workload"]["codes"])
    base_runs = {r["jobs"]: r for r in baseline["runs"]}
    fresh_runs = {r["jobs"]: r for r in fresh["runs"]}
    gate.exact("analysis.runs.jobs", sorted(base_runs), sorted(fresh_runs))
    # Ratios of two legs of the same run; none involves the legacy engine,
    # which runs the same algebra and so speeds up with the prover. jobs=1 is
    # the denominator (its own ratio is 1 by definition).
    for jobs in sorted(set(base_runs) & set(fresh_runs) - {1}):
        gate.ratio_floor(f"analysis.parallel_speedup[jobs={jobs}]",
                         base_runs[jobs]["parallel_speedup"],
                         fresh_runs[jobs]["parallel_speedup"], tolerance_pct)
    gate.ratio_floor("analysis.warm_speedup", baseline["warm"]["warm_speedup"],
                     fresh["warm"]["warm_speedup"], tolerance_pct)
    # Work counts of the cold serial pass are deterministic: exact.
    gate.exact("analysis.work.keys", sorted(baseline["work"]), sorted(fresh["work"]))
    for key in sorted(set(baseline["work"]) & set(fresh["work"])):
        gate.exact(f"analysis.work.{key}", baseline["work"][key], fresh["work"][key])
    # Hit rate is a cache property of a deterministic workload, not a timing:
    # a small absolute allowance covers task-order nondeterminism only.
    gate.check(fresh["tfft2"]["hit_rate"] >= baseline["tfft2"]["hit_rate"] - 0.05,
               "analysis.tfft2.hit_rate",
               f"baseline {baseline['tfft2']['hit_rate']:.3f}, "
               f"fresh {fresh['tfft2']['hit_rate']:.3f} (allowance 0.05)")


def compare_contention(gate, baseline, fresh, tolerance_pct):
    del tolerance_pct  # the profiler gate is absolute, not relative
    gate.exact("contention.schema", baseline["schema"], fresh["schema"])
    # The bench's own acceptance bound is <5%; the baseline diff only refuses
    # a fresh run that is both over the bound and worse than the baseline by
    # more than measurement jitter (2 percentage points).
    ceiling = max(baseline["overhead_pct"] + 2.0, 5.0)
    gate.abs_ceiling("contention.overhead_pct", fresh["overhead_pct"], ceiling,
                     f"baseline {baseline['overhead_pct']:.3f}% + 2pt jitter, min 5%")


def compare_symval(gate, baseline, fresh, tolerance_pct):
    del tolerance_pct  # everything here is structural
    base_codes = {c["name"]: c for c in baseline["codes"]}
    fresh_codes = {c["name"]: c for c in fresh["codes"]}
    gate.exact("symval.codes", sorted(base_codes), sorted(fresh_codes))
    for name in sorted(set(base_codes) & set(fresh_codes)):
        base_runs = {r["processors"]: r for r in base_codes[name]["runs"]}
        fresh_runs = {r["processors"]: r for r in fresh_codes[name]["runs"]}
        for procs in sorted(set(base_runs) & set(fresh_runs)):
            b, f = base_runs[procs], fresh_runs[procs]
            prefix = f"symval.{name}[P={procs}]"
            gate.exact(f"{prefix}.differential", b["differential"], f["differential"])
            gate.exact(f"{prefix}.closed_form_regions", b["closed_form_regions"],
                       f["closed_form_regions"])
            gate.exact(f"{prefix}.accesses", b["accesses"], f["accesses"])
            gate.check(abs(b["local_fraction"] - f["local_fraction"]) < 1e-9,
                       f"{prefix}.local_fraction",
                       f"baseline {b['local_fraction']}, fresh {f['local_fraction']}")


def compare_kernels(gate, baseline, fresh, tolerance_pct):
    del tolerance_pct  # kernel locality results are structural, never timed
    gate.exact("kernels.schema", baseline["schema"], fresh["schema"])
    base_kernels = {k["name"]: k for k in baseline["kernels"]}
    fresh_kernels = {k["name"]: k for k in fresh["kernels"]}
    gate.exact("kernels.names", sorted(base_kernels), sorted(fresh_kernels))
    for name in sorted(set(base_kernels) & set(fresh_kernels)):
        base_bindings = {b["class"]: b for b in base_kernels[name]["bindings"]}
        fresh_bindings = {b["class"]: b for b in fresh_kernels[name]["bindings"]}
        gate.exact(f"kernels.{name}.binding_classes", sorted(base_bindings),
                   sorted(fresh_bindings))
        for cls in sorted(set(base_bindings) & set(fresh_bindings)):
            gate.exact(f"kernels.{name}[{cls}].params",
                       base_bindings[cls]["params"], fresh_bindings[cls]["params"])
            base_runs = {r["processors"]: r for r in base_bindings[cls]["runs"]}
            fresh_runs = {r["processors"]: r for r in fresh_bindings[cls]["runs"]}
            for procs in sorted(set(base_runs) & set(fresh_runs)):
                b, f = base_runs[procs], fresh_runs[procs]
                prefix = f"kernels.{name}[{cls}][H={procs}]"
                # Everything below is a deterministic function of the analysis
                # over fixed bindings: oracle verdicts, LCG structure and the
                # DSM cost model's times must reproduce exactly.
                gate.exact(f"{prefix}.differential", b["differential"], f["differential"])
                gate.exact(f"{prefix}.locality_check", b["locality_check"],
                           f["locality_check"])
                gate.exact(f"{prefix}.accesses", b["accesses"], f["accesses"])
                gate.exact(f"{prefix}.comm_edges", b["comm_edges"], f["comm_edges"])
                gate.exact(f"{prefix}.redistributions", b["redistributions"],
                           f["redistributions"])
                gate.exact(f"{prefix}.closed_form_regions", b["closed_form_regions"],
                           f["closed_form_regions"])
                gate.check(abs(b["local_fraction"] - f["local_fraction"]) < 1e-9,
                           f"{prefix}.local_fraction",
                           f"baseline {b['local_fraction']}, fresh {f['local_fraction']}")
                for key in ("planned_time", "naive_time"):
                    rel = abs(b[key] - f[key]) / max(1.0, abs(b[key]))
                    gate.check(rel < 1e-6, f"{prefix}.{key}",
                               f"baseline {b[key]}, fresh {f[key]} (model time, "
                               f"must reproduce exactly)")


def compare_intern(gate, baseline, fresh, tolerance_pct):
    gate.exact("intern.schema", baseline["schema"], fresh["schema"])
    gate.exact("intern.distinct_exprs", baseline["distinct_exprs"],
               fresh["distinct_exprs"])
    gate.exact("intern.warm_rounds", baseline["warm_rounds"], fresh["warm_rounds"])
    # The warm/cold quotient is measured within one process, so it transfers
    # across machines; raw ns/op does not and is never compared.
    gate.ratio_floor("intern.warm_speedup", baseline["warm_speedup"],
                     fresh["warm_speedup"], tolerance_pct)
    # Table-quality metrics are deterministic properties of the hash function
    # and the resize policy over a fixed workload, so they get tight absolute
    # ceilings rather than a timing tolerance.
    gate.abs_ceiling("intern.mean_probe_length", fresh["mean_probe_length"],
                     max(baseline["mean_probe_length"] + 1.0, 4.0),
                     f"baseline {baseline['mean_probe_length']:.3f} + 1 probe, min 4")
    gate.abs_ceiling("intern.load_factor", fresh["load_factor"], 0.75,
                     "resize policy must keep open addressing sparse")
    gate.abs_ceiling("intern.bytes_per_node", fresh["bytes_per_node"],
                     baseline["bytes_per_node"] * 1.25,
                     f"baseline {baseline['bytes_per_node']:.1f} + 25% layout headroom")


def compare_service(gate, baseline, fresh, tolerance_pct):
    del tolerance_pct  # robustness verdicts are absolute, latency is never gated
    gate.exact("service.schema", baseline["schema"], fresh["schema"])
    # The soak's own pass/fail verdicts: any False here means the service
    # dropped work, corrupted a golden, or leaked in-flight requests.
    gate.exact("service.golden_stable", True, fresh["golden_stable"])
    gate.exact("service.drained_clean", True, fresh["drained_clean"])
    gate.exact("service.faults.structured", True, fresh["faults"]["structured"])
    gate.exact("service.flood.golden_mismatches", 0,
               fresh["flood"]["golden_mismatches"])
    gate.exact("service.overload.drained_clean", True,
               fresh["overload"]["drained_clean"])
    gate.exact("service.socket.failures", 0, fresh["socket"]["failures"])
    # The overload phase must actually shed: a zero here means admission
    # control silently stopped refusing work (or the burst stopped bursting).
    gate.check(fresh["overload"]["shed"] > 0, "service.overload.shed",
               f"fresh {fresh['overload']['shed']} must be > 0 "
               f"(baseline {baseline['overload']['shed']})")
    # The memo hit rate is a cache property of the deterministic request
    # corpus, not a timing: gate it against the baseline with a small
    # allowance for scheduling nondeterminism, plus the soak's own absolute
    # floor of 0.5 (the cross-request-reuse bar from the PR that added it).
    floor = max(baseline["flood"]["memo_hit_rate"] - 0.05, 0.5)
    gate.check(fresh["flood"]["memo_hit_rate"] >= floor,
               "service.flood.memo_hit_rate",
               f"baseline {baseline['flood']['memo_hit_rate']:.3f}, "
               f"fresh {fresh['flood']['memo_hit_rate']:.3f}, floor {floor:.3f}")
    # Latency percentiles (flood.latency_p50_ms/p99_ms) are reported in the
    # artifact but deliberately never compared: raw wall-clock does not
    # transfer across machines.


COMPARATORS = {
    "BENCH_analysis.json": compare_analysis,
    "BENCH_contention.json": compare_contention,
    "BENCH_intern.json": compare_intern,
    "BENCH_kernels.json": compare_kernels,
    "BENCH_service.json": compare_service,
    "BENCH_symval.json": compare_symval,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline_dir")
    parser.add_argument("fresh_dir")
    parser.add_argument("--tolerance-pct", type=float, default=40.0,
                        help="allowed relative drop in ratio metrics (default 40)")
    parser.add_argument("--only", default=None,
                        help="comma-separated artifact filenames to compare; other "
                             "baselines are ignored entirely (a CI stage gates only "
                             "the artifacts it regenerates)")
    args = parser.parse_args()

    only = set(args.only.split(",")) if args.only else None
    if only:
        unknown = only - set(COMPARATORS)
        if unknown:
            print(f"bench_compare: no comparator for {sorted(unknown)}", file=sys.stderr)
            return 2

    gate = Gate()
    compared = 0
    for filename, comparator in sorted(COMPARATORS.items()):
        if only is not None and filename not in only:
            continue
        base_path = os.path.join(args.baseline_dir, filename)
        fresh_path = os.path.join(args.fresh_dir, filename)
        if not os.path.exists(base_path):
            print(f"  (no baseline for {filename}; skipped)")
            continue
        if not os.path.exists(fresh_path):
            gate.check(False, filename, f"baseline exists but fresh run produced no {fresh_path}")
            continue
        print(f"{filename}:")
        with open(base_path) as handle:
            baseline = json.load(handle)
        with open(fresh_path) as handle:
            fresh = json.load(handle)
        comparator(gate, baseline, fresh, args.tolerance_pct)
        compared += 1

    if compared == 0 and not gate.failures:
        print("bench_compare: no baselines found — nothing compared", file=sys.stderr)
        return 2
    if gate.failures:
        print(f"\nbench_compare: {len(gate.failures)} regression(s):", file=sys.stderr)
        for line in gate.failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"bench_compare: {compared} artifact(s) within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
