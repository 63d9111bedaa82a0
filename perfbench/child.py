"""One measured flowtab process: ``python3 child.py <job.json>``.

The job names the source tree, the model, a list of CLI argument vectors and
where to write the result.  The child times ``import flowtab.cli`` plus
``load_model`` (set-up), then each ``flowtab.cli.main(argv)`` call, and
writes a JSON result.  With a trace directory, the calls run under the
span recorder of ``spans.py``, and the child then times the recorder's cost
per span.  With ``reference`` set, it afterwards computes, outside the timed
region, the analytic values that the output checks compare against.
"""
from __future__ import annotations

import json
import sys
import time


def _reference(model, job: dict) -> dict:
    ref = job["reference"]
    if ref["kind"] == "simulate":
        from flowtab.algorithms import DegenerateError
        from flowtab.analytic import analytic_for_spec
        from flowtab.sweep import SweepSpec

        cells = []
        for cell in SweepSpec(model=model, axis=ref["axis"]).cells():
            try:
                coverage = analytic_for_spec(model, cell).coverage_pct
            except DegenerateError:
                coverage = 0.0
            param = cell.threshold if cell.kind != "sampling" else cell.probability
            cells.append({"kind": cell.kind, "param": param, "coverage": coverage})
        return {"cells": cells}
    # analyze: on the integer length axis the coverage of ``first`` moves in
    # steps of 100 * pmass(k) over the octets weighting, so an inverted target
    # can only be met to within the step at the returned threshold k
    octets = model.axis("length").octets
    steps = {}
    with open(ref["length_csv"], "r", encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            algorithm, target, param = line.split(",")[:3]
            if algorithm == "first" and param != "unreachable":
                k = max(round(float(param)), octets.domain_min)
                steps[target] = 100.0 * float(octets.pmass(float(k)))
    return {"first_length_steps": steps}


def main() -> int:
    with open(sys.argv[1], "r", encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])

    start = time.perf_counter()
    import flowtab.cli

    model = flowtab.cli.load_model(job["model"])
    setup_s = time.perf_counter() - start

    run_main = flowtab.cli.main
    tracer = None
    if job.get("trace_dir"):
        import spans

        tracer, run_main = spans.install(job["trace_dir"])

    calls = []
    for argv in job["commands"]:
        start = time.perf_counter()
        code = run_main(argv)
        calls.append({"exit": code, "wall_s": time.perf_counter() - start})
    if tracer is not None:
        tracer.flush()

    numpy, scipy = sys.modules["numpy"], sys.modules.get("scipy")
    result = {
        "setup_s": setup_s,
        "calls": calls,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__ if scipy else None,
        },
    }
    if tracer is not None:
        result["span_cost_s"] = spans.span_cost(tracer)
    if job.get("reference") and all(c["exit"] == 0 for c in calls):
        result["reference"] = _reference(model, job)
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
