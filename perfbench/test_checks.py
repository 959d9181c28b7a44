"""Tests of the benchmark itself: its checks, its tracer and its result line.

    python3 -m pytest -q perfbench/test_checks.py

Each correctness check must pass on real outputs of a second seed and
must reject a deliberately corrupted output.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import setcover_kit as sk  # noqa: E402
import workloads  # noqa: E402
from checks import (FALSIFIED_WITHOUT_VIOLATION, SOLVE_STOPS_OUTSIDE, CheckFailed,  # noqa: E402
                    KnownFault)

SEED = 2


def first_of_each_kind(workload: str, seed: int) -> list:
    seen, jobs = set(), []
    for job in workloads.build(workload, seed):
        if job.kind not in seen:
            seen.add(job.kind)
            jobs.append(job)
    return jobs


def job_named(workload: str, prefix: str, seed: int = SEED):
    """The first job (in run order) whose name is `prefix` or starts with it."""
    jobs = workloads.build(workload, seed)
    exact = [job for job in jobs if job.name == prefix]
    return exact[0] if exact else next(job for job in jobs if job.name.startswith(prefix))


def run_job(job):
    out = job.run()
    job.check(out, {})
    return out


def rejects(job, out) -> CheckFailed:
    with pytest.raises(CheckFailed) as caught:
        job.check(out, {})
    return caught.value


def shows_its_fault(job, out) -> None:
    with pytest.raises(KnownFault) as caught:
        job.check(out, {})
    assert caught.value.fault == job.known_fault


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_check_passes_on_a_second_seed(workload):
    for job in first_of_each_kind(workload, SEED):
        out = job.run()
        if job.known_fault:
            shows_its_fault(job, out)
        else:
            job.check(out, {})


def test_flipped_covering_verdict_is_rejected():
    job = job_named("closed-form", "covering-")
    cert = run_job(job)
    fake = sk.Violation(0, (0.0,), 1.0, (0.0, 0.0), 1.0, "violation", (0.0,))
    cert.violations.append(fake)
    rejects(job, cert)


def test_unconfirmed_set_covering_violations_are_rejected():
    job = job_named("closed-form", "set-covering-falsified-")
    cert = run_job(job)
    moved = copy.deepcopy(cert)
    # a witness that reaches the point: the record no longer shows a violation
    v = moved.violations[0]
    reach = (float(np.linalg.norm(v.point)),) if len(v.point) > len(v.witness) else v.point
    moved.violations[0] = sk.Violation(v.trial, v.x, v.r, v.point, v.margin, v.kind, reach)
    rejects(job, moved)
    cert.violations.clear()
    rejects(job, cert)


def test_wrong_constant_is_rejected():
    job = job_named("closed-form", "set-covering-1")
    alpha, cert = run_job(job)
    rejects(job, (alpha * 1.01, cert))


def test_solve_point_moved_off_the_solution_set_is_rejected():
    job = job_named("closed-form", "solve-")
    traces = run_job(job)
    tr = next(t for t in traces if t.steps[0].residual > 1e-3)
    start = tr.steps[0]
    tr.steps.append(sk.solver.SolveStep(start.x, start.residual, 0.0, "contraction"))
    rejects(job, traces)


def test_penalty_value_off_the_closed_form_is_rejected():
    job = job_named("closed-form", "penalty-")
    code, result = run_job(job)
    result["minimizer"]["value"] += 1e-3
    rejects(job, (code, result))


def test_enlargement_distance_off_the_closed_form_is_rejected():
    job = job_named("closed-form", "enlargement-")
    out = run_job(job)
    out[0][1][0] += 1e-6
    rejects(job, out)


def test_flipped_demo_verdict_is_rejected():
    job = job_named("closed-form", "demo-sphere_scale_set_covering")
    code, result = run_job(job)
    result["certificate"]["verdict"] = "no-counterexample-found"
    rejects(job, (code, result))


@pytest.mark.parametrize("prefix", ["excess-", "hausdorff-"])
def test_distance_shifted_outside_its_bracket_is_rejected(prefix):
    job = job_named("polyhedral-reuse", prefix)
    value = run_job(job)
    shifted = sk.Distance(float(value) + value.error + 1e-3, approximate=True, error=value.error)
    rejects(job, shifted)


def test_inflated_interior_radius_is_rejected():
    job = job_named("polyhedral-churn", "classify-")
    outs = run_job(job)
    i = next(k for k, (_, res) in enumerate(outs) if res["verdict"] == "set-covering")
    outs[i][1]["report"]["alpha"] *= 1.5
    rejects(job, outs)
    flipped = job.run()
    flipped[i][1]["verdict"] = "not-set-covering"
    rejects(job, flipped)


def test_process_solves_show_the_solver_fault():
    job = job_named("polyhedral-reuse", "process-solves")
    assert job.known_fault == SOLVE_STOPS_OUTSIDE
    traces = job.run()
    shows_its_fault(job, traces)
    # a point far beyond the displacement bound is another failure, not the known one
    tr = traces[0]
    far = tuple(np.array(tr.steps[-1].x) + 10.0 * (1.0 + tr.bound_check[1]))
    tr.steps.append(sk.solver.SolveStep(far, 0.0, 0.0, "contraction"))
    assert not isinstance(rejects(job, traces), KnownFault)


def test_process_solve_point_moved_off_the_solution_set_is_rejected():
    job = job_named("polyhedral-reuse", "process-solves")
    traces = job.run()
    solves = job.check.args[0]
    inside = [i for i, (tr, (cx, cy, phi_image, _)) in enumerate(zip(traces, solves))
              if workloads.ball_in_region_violation(*phi_image(tr.x_final), cy,
                                                    -(cx @ tr.x_final), "euclidean") <= 0.0]
    assert inside and len(inside) < len(traces)
    kept = [solves[i] for i in inside]
    passing = [traces[i] for i in inside]
    workloads.check_process_solves(kept, passing, {})
    # back to the start, which is not a solution: still within the displacement bound
    tr = passing[0]
    assert tr.steps[0].residual > 1e-3
    tr.steps.append(sk.solver.SolveStep(tr.steps[0].x, 0.0, 0.0, "contraction"))
    with pytest.raises(KnownFault):
        workloads.check_process_solves(kept, passing, {})


def test_falsified_set_covering_of_a_set_covering_map_is_rejected():
    job = job_named("polyhedral-reuse", "epigraphical-set-covering-")
    cert = run_job(job)
    cert.violations.append(sk.Violation(0, (0.0,), 1.0, (0.0, 0.0), 1.0, "violation", (0.0,)))
    rejects(job, cert)


def test_sublinear_certificate_checks_the_constant():
    job = job_named("polyhedral-churn", "sublinear-set-covering-")
    alpha, cert = run_job(job)
    rejects(job, (alpha * (1 + 1e-9), cert))


def test_the_known_fault_fails_the_general_check():
    job = job_named("polyhedral-churn", "covering-1.5-sublinear")
    cert = job.run()
    assert job.known_fault == FALSIFIED_WITHOUT_VIOLATION
    assert cert.verdict == "falsified" and not cert.genuine_violations()
    shows_its_fault(job, cert)


def test_only_the_named_fault_is_an_expected_failure():
    import run

    job = job_named("polyhedral-churn", "covering-1.5-sublinear")
    assert run.expected_failure(job, KnownFault(FALSIFIED_WITHOUT_VIOLATION, "x"))
    assert not run.expected_failure(job, KnownFault(SOLVE_STOPS_OUTSIDE, "x"))
    assert not run.expected_failure(job, CheckFailed("x"))
    assert not run.expected_failure(job, ValueError("x"))
    other = job_named("polyhedral-churn", "demo-sublinear")
    assert not run.expected_failure(other, KnownFault(FALSIFIED_WITHOUT_VIOLATION, "x"))


def test_tracer_replaces_every_binding():
    import importlib

    import spans

    tracer = spans.Tracer()
    tracer.enabled = False
    spans.install(tracer)
    try:
        geometry = importlib.import_module("setcover_kit.geometry")
        for name in ("mappings", "certify", "solver"):
            mod = importlib.import_module(f"setcover_kit.{name}")
            assert mod.dist_point is geometry.dist_point
            assert mod.dist_point.__wrapped_span__ == "geometry.dist_point"
        jobs = [job_named("closed-form", "demo-t1"), job_named("polyhedral-reuse", "demo-process")]
        tracer.enabled = True
        for job in jobs:
            job.run()
        tracer.enabled = False
        layers = spans.per_layer(tracer, 1)
        assert layers["solver.steps"][0] > 0
        assert layers["lp.solves"][0] == 2  # the interior-radius slack and witness LPs
        assert layers["instances.decode.self_s"][0] > 0
    finally:
        tracer.enabled = False


def run_bench(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_result_line_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_bench(HERE.parent, "--workload", "polyhedral-churn", "--seed", str(SEED),
                         "--seconds", "0", "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] <= 1 and result["attempted"] == 100
        assert set(result["metrics"]) == {m["name"] for m in spec[key]}
        for m in spec[key]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_to_run_without_the_kit(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "--workload", "closed-form", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
