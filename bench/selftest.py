"""Self-test of the benchmark at a tiny budget: about a minute on two cores.

    python3 bench/selftest.py

Runs a shrunken workload (few draws, a small corpus) untraced and traced,
checks the printed result's schema against BENCHMARK.json, and checks that
deliberately corrupted outputs fail the gate: a NaN in summary.json, a
wrong count, a perturbed OLS slope, a negative intercept draw, a changed
output on a repeated seed, a crash and a non-zero exit. It also checks that
the speed meter rescales the calibration loop to its reference time. Exits 0
when every check passes.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys

import gate
import run
import speed
import workloads

TINY = dataclasses.replace(
    workloads.WORKLOADS["ref3"],
    name="selftest",
    articles=8,
    tokens_per_article=400,
    draws=200,
    warmup=100,
    evidence_samples=2000,
    ensemble=50,
    top_k=100,
)
TINY_WORDS = dataclasses.replace(
    workloads.WORKLOADS["words1k"],
    name="selftest-words",
    n_words=40,
    top_count=1e4,
    articles=8,
    tokens_per_article=400,
    draws=200,
    warmup=100,
    evidence_samples=2000,
    ensemble=50,
    top_k=100,
)

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def check_schema(line: dict, declared: list[dict], what: str) -> None:
    expect(set(line) == {"correct", "attempted", "failed", "metrics"}, f"{what}: top-level keys")
    expect(
        type(line["attempted"]) is int and type(line["failed"]) is int and line["attempted"] >= 1,
        f"{what}: attempted and failed are integers, attempted >= 1",
    )
    expect(line["correct"] is True and line["failed"] == 0, f"{what}: no failed step ({line['failed']})")
    expect(list(line["metrics"]) == [m["name"] for m in declared], f"{what}: every declared metric, in order")
    bad = []
    for m in declared:
        got = line["metrics"].get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"] or not isinstance(value, (int, float)) or not math.isfinite(value):
            bad.append(m["name"])
    expect(not bad, f"{what}: every metric is a finite number in its declared unit {bad or ''}")
    json.loads(json.dumps(line), parse_constant=gate._reject_constant)


class FakeCli:
    """Stands in for bayesline.cli: each call runs the next behaviour."""

    def __init__(self, *behaviours):
        self.behaviours = list(behaviours)

    def run(self, argv):
        return self.behaviours.pop(0)()


def emit(text: str, code: int = 0):
    def behaviour():
        print(text, end="")
        return code

    return behaviour


def crash():
    raise ZeroDivisionError("deliberate")


def main() -> int:
    spec = run.load_spec()
    for w in (TINY, TINY_WORDS):
        for trace in (False, True):
            work = run.ROOT / ".bench_work" / f"{w.name}-trace{int(trace)}"
            result = run.measure(w, seed=3, seconds=0, trace=trace, work=work)
            for key, problems in result["failures"]:
                print(f"  {key}: {problems}")
            line = run.result_line(result, spec, trace)
            check_schema(line, spec["per_layer" if trace else "end_to_end"], f"{w.name} trace={int(trace)}")

    out = run.ROOT / ".bench_work" / "selftest-trace0" / "out"
    summary = out / "hmc" / "summary.json"
    text = summary.read_text(encoding="utf-8")
    expect(gate.read_summary(out / "hmc")[1] == [], "intact summary.json passes")
    first_ess = json.loads(text)["parameters"]["a"]["ess"]
    summary.write_text(text.replace(repr(first_ess), "NaN", 1), encoding="utf-8")
    expect(gate.read_summary(out / "hmc")[1] != [], "NaN in summary.json fails the gate")

    counts = (run.ROOT / ".bench_work" / "selftest-trace0" / "counts.tsv").read_text(encoding="utf-8")
    word, total, articles = counts.splitlines()[0].split("\t")
    wrong = counts.replace(f"{word}\t{total}\t", f"{word}\t{int(total) + 1}\t", 1)
    expect(gate.check_counts(counts, counts) == [], "exact counts pass")
    expect(gate.check_counts(wrong, counts) != [], "a count off by one fails the gate")

    evidence = json.dumps(
        {"models": [{"log_evidence": float("nan"), "mc_standard_error": 0.1, "n_prior_samples": 2000}] * 2,
         "bayes_factor": 1.0}
    )
    expect(gate.check_evidence(evidence, 2000) != [], "NaN log evidence fails the gate")

    ols = out / "ols" / "ols.json"
    fit = json.loads(ols.read_text(encoding="utf-8"))
    expect(gate.check_ols(out / "ols", out.parent / "counts.tsv") == [], "intact ols.json passes")
    fit["slope"] *= 1 + 1e-7
    ols.write_text(json.dumps(fit), encoding="utf-8")
    expect(gate.check_ols(out / "ols", out.parent / "counts.tsv") != [], "slope off by 1e-7 fails the gate")

    samples = out / "rwm" / "samples.csv"
    rows = samples.read_text(encoding="utf-8").splitlines()
    cells = rows[5].split(",")
    cells[3] = "-0.5"
    samples.write_text("\n".join(rows[:5] + [",".join(cells)] + rows[6:]) + "\n", encoding="utf-8")
    expect(gate.check_samples(samples, workloads.CHAINS, TINY.draws) != [], "negative b draw fails the gate")

    step = run.Step("counts", ["counts"], None, lambda s: [])
    runner = run.Runner(FakeCli(emit("a\n"), emit("b\n"), crash, emit("", code=2)), None, speed.SpeedMeter())
    for _ in range(4):
        runner.run_step(step, traced=False)
    verdicts = [bool(c.problems) for c in runner.calls]
    expect(verdicts == [False, True, True, True], f"changed output, crash and exit 2 each fail once: {verdicts}")

    meter = speed.SpeedMeter()
    with meter.timing() as timing:
        for _ in range(200):
            speed.kernel()
    expect(timing.marks > 0 and timing.net_s < timing.wall_s, f"the speed meter marks inside a block: {timing}")
    expect(
        abs(timing.scaled_s / (200 * speed.REFERENCE_KERNEL_S) - 1) < 0.2,
        f"n calibration loops measure n reference times within 20%: {timing.scaled_s:.4f} s",
    )

    print(f"{len(failures)} failed" if failures else "all self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
