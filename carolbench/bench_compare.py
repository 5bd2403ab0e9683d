#!/usr/bin/env python3
"""Compares two sets of carol_bench results, workload by workload.

    python3 carolbench/bench_compare.py BASE_DIR/ NEW_DIR/
    python3 carolbench/bench_compare.py --overhead DIR/
    python3 carolbench/bench_compare.py --selftest

Each directory holds results JSON files written by carol_bench (--out).
For every workload present in both sets and every end-to-end metric of
BENCHMARK.json it prints the median and quartiles of each set and the
ratio new/base, and marks the cell:

  ok          the new median is not worse than the base median by more
              than the metric's bound;
  worse       it is, and the spread of both sets is within the bound;
  unresolved  the spread (quartile distance over median) of either set is
              wider than the bound, so no verdict is possible, unless
              every new run beats every base run.

It then judges decision quality: the "quality" section of the results
(energy_kwh, slo_violation_rate, response_s, gate_accuracy of the
scenario workloads). These are deterministic for a seed, a run length and
a commit, so each is compared run for run on the (seed, seconds) pairs
both sets hold, against the bounds in QUALITY_BOUNDS: 1% for energy and
response, 0.005 absolute for the SLO violation rate, 0.01 absolute for
gate accuracy. A quality cell is worse when any common pair is worse by
more than its bound, and unresolved when the sets share no pair.

Exits 1 when any cell is worse or unresolved. Smoke runs are ignored and
only untraced runs are compared. --overhead instead compares the
untraced runs of DIR (base) with its traced runs (new): the ratio is the
cost of tracing, reported per workload and never failing.
"""
import argparse
import glob
import json
import os
import shutil
import statistics
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

# quality metric -> (better, "relative" | "absolute", bound)
QUALITY_BOUNDS = {
    "energy_kwh": ("lower", "relative", 0.01),
    "response_s": ("lower", "relative", 0.01),
    "slo_violation_rate": ("lower", "absolute", 0.005),
    "gate_accuracy": ("higher", "absolute", 0.01),
}


def load_runs(directory, traced):
    """The non-smoke results files of `directory` with the given trace flag."""
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            try:
                result = json.load(f)
            except ValueError:
                continue
        header = result.get("header")
        if not isinstance(header, dict) or header.get("smoke"):
            continue
        if bool(header.get("trace")) == traced:
            runs.append(result)
    return runs


def load_set(directory, traced):
    """workload -> metric -> [values] of the end-to-end metrics."""
    out = {}
    for result in load_runs(directory, traced):
        metrics = out.setdefault(result["header"]["workload"], {})
        for name, m in result.get("end_to_end", {}).items():
            metrics.setdefault(name, []).append(float(m["value"]))
    return out


def load_quality(directory):
    """workload -> metric -> (seed, seconds) -> [values] of untraced runs."""
    out = {}
    for result in load_runs(directory, False):
        header = result["header"]
        metrics = out.setdefault(header["workload"], {})
        key = (header.get("seed"), header.get("seconds"))
        for name, m in result.get("quality", {}).items():
            metrics.setdefault(name, {}).setdefault(key, []).append(
                float(m["value"]))
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def judge(base, new, better, bound):
    """Returns (verdict, ratio new/base, spread) for one cell."""
    bm = statistics.median(base)
    nm = statistics.median(new)
    wide = max(spread(base), spread(new))
    worse_by = (nm - bm) / bm if better == "lower" else (bm - nm) / bm
    if better == "lower":
        dominates = max(new) < min(base)
    else:
        dominates = min(new) > max(base)
    if dominates:
        verdict = "ok"
    elif wide > bound:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "worse"
    else:
        verdict = "ok"
    return verdict, nm / bm if bm else float("inf"), wide


def table(spec, base, new, out, judged):
    bad = 0
    cells = 0
    out.write("%-15s %-17s %5s %33s %33s %8s %7s  %s\n" % (
        "workload", "metric", "bound", "base median [q1, q3]",
        "new median [q1, q3]", "new/base", "spread",
        "verdict" if judged else ""))
    for w in (w["name"] for w in spec["workloads"]):
        if w not in base or w not in new:
            out.write("%-15s (missing from %s)\n" % (
                w, "base" if w not in base else "new"))
            bad += judged
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            if name not in base[w] or name not in new[w]:
                continue
            verdict, ratio, wide = judge(base[w][name], new[w][name],
                                         m["better"], m["bound"])
            b = quartiles(base[w][name])
            n = quartiles(new[w][name])
            out.write("%-15s %-17s %5.2f %11.4g [%9.4g, %9.4g] "
                      "%11.4g [%9.4g, %9.4g] %8.3f %7.3f  %s (n=%d/%d)\n" % (
                          w, name, m["bound"], b[1], b[0], b[2], n[1], n[0],
                          n[2], ratio, wide, verdict if judged else "",
                          len(base[w][name]), len(new[w][name])))
            cells += 1
            bad += verdict != "ok"
    if judged:
        out.write("%d cells, %d worse or unresolved\n" % (cells, bad))
    return 1 if judged and (bad or cells == 0) else 0


def judge_quality(base, new, better, kind, bound):
    """Returns (verdict, worst key, how much worse) over the common keys."""
    common = sorted(set(base) & set(new), key=str)
    if not common:
        return "unresolved", None, 0.0
    worst_key, worst = None, float("-inf")
    for key in common:
        b = statistics.median(base[key])
        n = statistics.median(new[key])
        worse_by = n - b if better == "lower" else b - n
        if kind == "relative":
            worse_by = worse_by / abs(b) if b else (0.0 if worse_by <= 0
                                                    else float("inf"))
        if worse_by > worst:
            worst_key, worst = key, worse_by
    return ("worse" if worst > bound else "ok"), worst_key, worst


def quality_table(spec, base, new, out):
    bad = 0
    out.write("\nquality (deterministic per seed; worst common (seed, seconds))"
              "\n%-15s %-19s %14s %12s %12s %10s  %s\n" % (
                  "workload", "metric", "bound", "base", "new", "worse by",
                  "verdict"))
    for w in (w["name"] for w in spec["workloads"]):
        names = sorted(set(base.get(w, {})) | set(new.get(w, {})))
        for name in names:
            better, kind, bound = QUALITY_BOUNDS.get(
                name, ("lower", "relative", 0.0))
            b = base.get(w, {}).get(name, {})
            n = new.get(w, {}).get(name, {})
            verdict, key, worse_by = judge_quality(b, n, better, kind, bound)
            bound_text = "%g %s" % (bound, "rel" if kind == "relative"
                                    else "abs")
            if key is None:
                out.write("%-15s %-19s %14s %12s %12s %10s  %s (no common "
                          "seed)\n" % (w, name, bound_text, "-", "-", "-",
                                       verdict))
            else:
                out.write("%-15s %-19s %14s %12.6g %12.6g %10.4g  %s "
                          "(seed %s, %s s)\n" % (
                              w, name, bound_text,
                              statistics.median(b[key]),
                              statistics.median(n[key]), worse_by, verdict,
                              key[0], key[1]))
            bad += verdict != "ok"
    out.write("%d quality cells worse or unresolved\n" % bad)
    return bad


def compare(base_dir, new_dir, spec_path=SPEC, out=sys.stdout):
    with open(spec_path) as f:
        spec = json.load(f)
    timing = table(spec, load_set(base_dir, False), load_set(new_dir, False),
                   out, judged=True)
    quality = quality_table(spec, load_quality(base_dir),
                            load_quality(new_dir), out)
    return 1 if timing or quality else 0


def overhead(directory, spec_path=SPEC, out=sys.stdout):
    with open(spec_path) as f:
        spec = json.load(f)
    out.write("tracing overhead: base = untraced runs, new = traced runs\n")
    return table(spec, load_set(directory, False), load_set(directory, True),
                 out, judged=False)


def selftest():
    spec = {
        "workloads": [{"name": "w", "why": "synthetic"}],
        "end_to_end": [
            {"name": "latency_mean_ms", "unit": "ms", "better": "lower",
             "bound": 0.1},
            {"name": "throughput_per_s", "unit": "1/s", "better": "higher",
             "bound": 0.1},
        ],
    }
    tmp = tempfile.mkdtemp(prefix="carolbench-selftest-")
    try:
        spec_path = os.path.join(tmp, "BENCHMARK.json")
        with open(spec_path, "w") as f:
            json.dump(spec, f)

        good_quality = {"energy_kwh": 2.0, "slo_violation_rate": 0.10,
                        "gate_accuracy": 0.90}

        def write_set(name, latencies, throughputs, smoke=False,
                      trace=False, quality=None, seed=1):
            d = os.path.join(tmp, name)
            os.makedirs(d, exist_ok=True)
            q = dict(good_quality, **(quality or {}))
            for i, (lat, thr) in enumerate(zip(latencies, throughputs)):
                path = os.path.join(d, "w-%d-%d.json" % (trace, i))
                with open(path, "w") as f:
                    json.dump({
                        "header": {"workload": "w", "trace": trace,
                                   "smoke": smoke, "seed": seed,
                                   "seconds": 20},
                        "quality": {k: {"value": v, "unit": ""}
                                    for k, v in q.items()},
                        "end_to_end": {
                            "latency_mean_ms": {"value": lat, "unit": "ms"},
                            "throughput_per_s": {"value": thr, "unit": "1/s"},
                        }}, f)
            return d

        base = write_set("base", [10.0, 10.1, 9.9], [100.0, 101.0, 99.0])
        same = write_set("same", [10.05, 9.95, 10.0], [100.5, 99.5, 100.0])
        slower = write_set("slower", [12.0, 12.1, 11.9], [100.0, 101.0, 99.0])
        fewer = write_set("fewer", [10.0, 10.1, 9.9], [80.0, 81.0, 79.0])
        noisy = write_set("noisy", [8.0, 10.0, 14.0], [100.0, 100.0, 100.0])
        faster = write_set("faster", [5.0, 9.0, 14.0], [100.0, 101.0, 99.0])
        # Every new run beats every base run despite the wide spread.
        dominated = write_set("dominated", [8.0, 8.5, 9.5],
                              [120.0, 130.0, 150.0])
        smoke = write_set("smoke", [50.0], [1.0], smoke=True)
        # Traced runs are not compared: the untraced ones here are fine.
        traced = write_set("traced", [10.0, 10.1, 9.9], [100.0, 101.0, 99.0])
        write_set("traced", [30.0, 30.0, 30.0], [10.0, 10.0, 10.0], trace=True)
        # Decision quality, same timings as base.
        timings = ([10.0, 10.1, 9.9], [100.0, 101.0, 99.0])
        energy = write_set("energy", *timings, quality={"energy_kwh": 2.03})
        slo = write_set("slo", *timings, quality={"slo_violation_rate": 0.11})
        gate_ok = write_set("gate_ok", *timings,
                            quality={"gate_accuracy": 0.895})
        gate = write_set("gate", *timings, quality={"gate_accuracy": 0.88})
        better_q = write_set("better_q", *timings,
                             quality={"energy_kwh": 1.5,
                                      "slo_violation_rate": 0.05})
        other_seed = write_set("other_seed", *timings, seed=2)
        sink = open(os.devnull, "w")
        cases = [
            (base, same, 0, "identical sets"),
            (base, slower, 1, "latency 20% worse"),
            (base, fewer, 1, "throughput 20% worse"),
            (base, noisy, 1, "spread wider than the bound"),
            (base, faster, 1, "wide spread, not dominating"),
            (base, dominated, 0, "dominating new runs"),
            (base, smoke, 1, "smoke runs are ignored"),
            (base, traced, 0, "traced runs are ignored"),
            (base, energy, 1, "energy 1.5% worse"),
            (base, slo, 1, "SLO violation rate 0.01 worse"),
            (base, gate_ok, 0, "gate accuracy 0.005 worse, within 0.01"),
            (base, gate, 1, "gate accuracy 0.02 worse"),
            (base, better_q, 0, "quality better"),
            (base, other_seed, 1, "no common seed for quality"),
        ]
        for a, b, want, what in cases:
            got = compare(a, b, spec_path, out=sink)
            if got != want:
                print("selftest FAILED: %s: exit %d, want %d" % (what, got, want))
                return 1
        if overhead(traced, spec_path, out=sink) != 0:
            print("selftest FAILED: --overhead must never fail")
            return 1
        verdict, ratio, _ = judge([10.0, 10.1, 9.9], [12.0, 12.1, 11.9],
                                  "lower", 0.1)
        if verdict != "worse" or abs(ratio - 1.2) > 1e-9:
            print("selftest FAILED: judge() says %s, ratio %g for a 20%% "
                  "slowdown" % (verdict, ratio))
            return 1
        print("selftest ok (%d cases)" % (len(cases) + 2))
        return 0
    finally:
        shutil.rmtree(tmp)


def main():
    parser = argparse.ArgumentParser(
        description="Compare two sets of carol_bench results.")
    parser.add_argument("base", nargs="?")
    parser.add_argument("new", nargs="?")
    parser.add_argument("--overhead", metavar="DIR",
                        help="traced vs untraced runs of one directory")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.overhead:
        return overhead(args.overhead)
    if not args.base or not args.new:
        parser.error("BASE and NEW directories are required")
    return compare(args.base, args.new)


if __name__ == "__main__":
    sys.exit(main())
