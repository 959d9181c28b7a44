"""Check that two kit source trees give the same output for every benchmark job.

    python3 tools/same_outputs.py dump --seeds 1 2 [--src DIR] [--reverse] > outputs.txt
    python3 tools/same_outputs.py compare OTHER_SRC [--seeds 1 2]

`dump` builds the job list of each workload in perfbench/ for each seed,
runs every job once in list order with the kit imported from --src
(default: this checkout's src/), and writes one line per job: workload,
seed, position, job name and its output as sorted JSON.  It then runs
each built-in instance at seeds 1 and 2 (the workloads run them at their
own seed 0) and writes its exit code and `result` the same way, under the
workload name `builtin`.  Last, for each seed, it writes the `forced`
certificates: rates above what the maps have, so that covering,
set-covering and inverse-errorbound violation records get compared too
(every such job of the workloads finds none), and so that the covering
search over polyhedral process images, which no workload job reaches,
runs too; the `forced` family runs, which take the calmness and
semiregularity diagnostics where the built-in family does not go: a
max-norm psi, a 2-d x, region solves that all fail and fall back to the
error bound, and a family whose phi does not depend on the parameter;
the `forced` extents of every row of a sublinear and a process
family, read through the family and then row by row in reverse; and the
`forced` excesses over every ordered pair of a fixed catalog of sets
under three norms, so that every pair rule of excess runs, and over an
empty region under each norm.
Every float is written by its hex form, so two dumps are
equal only when every value is equal bit for bit; a job that
raises is written as its exception.  With --reverse each workload's jobs,
and the built-ins, run last to first, each still written under its list
position, so the sorted dump equals the sorted forward dump unless an
output depends on what ran before it (a kept LP model, say).

`compare` dumps this checkout's src/ and OTHER_SRC, each in its own
interpreter, and reports the jobs whose lines differ.  It exits with 1
when any does.  Both dumps use this checkout's perfbench/ unchanged.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import subprocess
import sys
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("closed-form", "polyhedral-reuse", "polyhedral-churn")
BUILTIN_SEEDS = (1, 2)


def canonical(obj):
    """obj as JSON data, floats by their hex form; unknown types raise TypeError."""
    import numpy as np

    from setcover_kit.geometry import Distance

    if obj is None or isinstance(obj, (bool, np.bool_)):
        return None if obj is None else bool(obj)
    if isinstance(obj, Distance):
        return {"distance": float(obj).hex(), "approximate": bool(obj.approximate),
                "error": canonical(obj.error), "note": obj.note}
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, str):
        return "s:" + obj  # never mistaken for a float's hex form
    if isinstance(obj, np.ndarray):
        return {"dtype": str(obj.dtype), "shape": list(obj.shape),
                "data": [canonical(v) for v in obj.reshape(-1).tolist()]}
    if isinstance(obj, dict):
        return {"keys": [canonical(k) for k in obj], "values": [canonical(v) for v in obj.values()]}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if dataclasses.is_dataclass(obj):
        return {type(obj).__name__: {f.name: canonical(getattr(obj, f.name))
                                     for f in dataclasses.fields(obj)}}
    raise TypeError(f"no canonical form for {type(obj).__qualname__}")


def dump(src: Path, seeds: list[int], reverse: bool = False) -> None:
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import setcover_kit
    import workloads
    from setcover_kit.instances import builtin_instances, decode_instance, run_instance

    if Path(setcover_kit.__file__).resolve().parent != (src / "setcover_kit").resolve():
        sys.exit(f"same_outputs: imported setcover_kit from {setcover_kit.__file__}")

    def write(workload, seed, jobs):  # jobs: (name, run) pairs, written under their positions
        jobs = list(enumerate(jobs))
        for i, (name, run) in reversed(jobs) if reverse else jobs:
            try:
                out = canonical(run())
            except Exception as exc:  # a failing job is an output too
                out = {"raised": type(exc).__name__, "message": str(exc)}
            line = json.dumps(out, sort_keys=True, separators=(",", ":"))
            print(f"{workload} seed={seed} {i:03d} {name}\t{line}", flush=True)

    def run_builtin(data, seed):
        code, result = run_instance(decode_instance(data), seed=seed)
        return {"exit_code": code, "result": result}

    for seed in seeds:
        for workload in WORKLOADS:
            write(workload, seed, [(job.name, job.run) for job in workloads.build(workload, seed)])
    for seed in BUILTIN_SEEDS:
        write("builtin", seed, [(name, partial(run_builtin, data, seed))
                                for name, data in builtin_instances().items()])
    for seed in seeds:
        write("forced", seed, forced_jobs(seed))


def forced_jobs(seed: int) -> list:
    """Certificates run at rates their maps do not have, so that each records violations:
    covering at alpha 2 on the four covering-only maps (rate 1), inverse-errorbound at
    three times the rate of a euclidean and a max-norm dilation, set-covering of the
    sphere scaling (no rate at all), and covering at three times the constant of one
    set-covering polyhedral process per shape (k, m) of workloads.process_matrices, 6
    trials each: the one run of the pattern search over process images."""
    import numpy as np
    import setcover_kit as sk
    import workloads

    cover_only = {"sphere_scale": sk.SphereScale(), **{
        f"unit_ball_translate_{d}": sk.UnitBallTranslate(d) for d in (1, 2, 3)}}
    jobs = [(f"covering-2-{name}", partial(sk.check_covering, m, 2.0, 40, seed))
            for name, m in cover_only.items()]
    for norm in ("euclidean", "max"):
        space = sk.NormedSpace(2, norm)
        m = sk.Dilation(np.array([0.5, -0.25]), 1.5, 0.25, np.array([0.1, 0.0]), space, space)
        jobs.append((f"inverse-errorbound-3a-dilation-{norm}",
                     partial(sk.check_inverse_errorbound, m, 4.5, 40, seed)))
    jobs.append(("set-covering-sphere_scale",
                 partial(sk.check_set_covering, cover_only["sphere_scale"], 0.5, 40, seed)))

    def covering_3a(proc):
        return sk.check_covering(proc, 3.0 * sk.alpha_of(proc).alpha, 6, seed)

    rng = np.random.default_rng(seed)
    for k, m in ((1, 2), (2, 2), (2, 3), (3, 3)):
        proc = sk.PolyhedralProcess(*workloads.process_matrices(rng, k, m, covering=True))
        jobs.append((f"covering-3a-process-{k}x{m}", partial(covering_3a, proc)))
    return jobs + forced_family_jobs(seed) + forced_extent_jobs(seed) + forced_excess_jobs(seed)


def forced_family_jobs(seed: int) -> list:
    """family runs at the seed beside the built-in one: as instance files, a max-norm psi
    from R into R^3, a 2-d x, and a reference at p_bar = 1e12, where a step shorter than
    the float spacing about |x| = 2e12 leaves x in place, so that every region solve stops
    with its contraction violated and the a-priori error bound stands in; and through the
    library, a family whose phi is the same at every parameter: about a point inside
    its region semiregularity finds no sample outside it (the inf sentinel), and about
    a point on its boundary no parameter takes a sample in (every one skipped)."""
    import numpy as np
    import setcover_kit as sk
    from setcover_kit.instances import builtin_instances, decode_instance, run_instance

    def run_family(**changes):
        data = builtin_instances()["family"]
        data["family"].update(changes)
        code, result = run_instance(decode_instance(data), seed=seed)
        return {"exit_code": code, "result": result}

    max3 = {"dim": 3, "norm": "max"}
    eu2 = {"dim": 2}
    jobs = [
        ("family-max-norm-psi", partial(
            run_family, c1=0.3, psi={"kind": "dilation", "y0": [0.0, 0.5, -0.5], "a": 1.5,
                                     "b": 0.25, "anchor": [0.0], "space_y": max3})),
        ("family-2d-x", partial(
            run_family, x_bar=[1.5, 1.0], objective={"kind": "norm_to_point", "target": [3.0, 0.0]},
            psi={"kind": "dilation", "y0": [0.0, 0.0], "a": 1.0, "anchor": [0.25, 0.0],
                 "space_x": eu2, "space_y": eu2})),
        ("family-region-solves-fail", partial(run_family, p_bar=[1e12], x_bar=[2e12])),
    ]
    space1, space2 = sk.NormedSpace(1), sk.NormedSpace(2)
    phi = sk.BallValued(sk.Affine(np.zeros((2, 1)), np.zeros(2)), c0=1.0, c1=0.5,
                        space_x=space1, space_y=space2)
    psi = sk.Dilation(np.zeros(2), 1.0, 0.0, np.zeros(1), space1, space2)
    constant = sk.ParamFamily(space1, np.array([1.0]), lambda p: phi, lambda p: psi)
    for x_bar in (3.0, 2.0):
        jobs.append((f"family-constant-x{x_bar:g}", partial(
            lambda x: (sk.calmness_diagnostic(constant, sk.AbsCoord(0), [x], [0.25, 0.5], seed),
                       sk.semiregularity_estimate(constant, [x], 0.5, 16, seed)), x_bar)))
    return jobs


def forced_extent_jobs(seed: int) -> list:
    """The extents of every row of a 3-d sublinear family and of a 2x3 process family
    (workloads.process_matrices, with a row that bounds the images; some are empty),
    read through the family and then row by row in reverse order, on one map: each
    row's extent depends only on its form rows and bounds, so the two readings are
    equal, and equal in a reverse-order dump."""
    import numpy as np
    import setcover_kit as sk
    import workloads

    rng = np.random.default_rng(seed)
    sublinear = sk.SublinearSystem(tuple(rng.standard_normal((2, 3)) for _ in range(3)))
    cx, cy = workloads.process_matrices(rng, 2, 3, covering=True)
    process = sk.PolyhedralProcess(np.vstack([cx, rng.standard_normal((1, 2))]),
                                   np.vstack([cy, np.ones((1, 3))]))

    def extent(row):
        try:
            return row.extent()
        except Exception as exc:  # an empty row raises, read either way
            return {"raised": type(exc).__name__, "message": str(exc)}

    def extents(m, xs):
        family = sk.eval_maps(m, xs)
        # a source tree whose Regions has no rows() reads each row alone
        rows = family.rows() if hasattr(family, "rows") else [
            family.row(i) for i in range(len(family))]
        return {"family": [extent(row) for row in rows],
                "rows_reversed": [extent(family.row(i)) for i in reversed(range(len(family)))]}

    return [("extents-sublinear-3d", partial(extents, sublinear, 2.0 * rng.standard_normal((5, 3)))),
            ("extents-process-2x3", partial(extents, process, 2.0 * rng.standard_normal((5, 2))))]


def forced_excess_jobs(seed: int) -> list:
    """excess at the seed over every ordered pair of a fixed 2-d catalog, one set of
    each kind with a one-point cloud, an unbounded region, a second orthant and two
    enlargements beside them, under the euclidean, max and 3-norms: each pair rule of
    excess has a pair that reaches it, and the sampled pairs draw 64 points.  Last, under
    each norm, the sampled excess of the square region over an empty region."""
    import numpy as np
    import setcover_kit as sk

    square = sk.SublevelRegion((sk.FormGroup(np.vstack([np.eye(2), -np.eye(2)]), 1.0),
                                sk.FormGroup(np.ones((1, 2)), 1.5)))
    polytope = sk.VPolytope(np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]]) - 0.25)
    sets = {
        "ball": sk.Ball(np.array([1.0, -0.5]), 0.75),
        "sphere": sk.Sphere(np.array([0.0, 2.0]), 1.5),
        "box": sk.Box(np.array([-1.0, 0.0]), np.array([1.0, 2.0])),
        "v_polytope": polytope,
        "point_cloud": sk.PointCloud(np.array([[1.0, 1.0], [-2.0, 0.5]])),
        "point": sk.PointCloud(np.array([[0.5, -1.0]])),
        "region": square,
        "half_space": sk.SublevelRegion((sk.FormGroup(np.array([[1.0, -0.5]]), 0.5),)),
        "orthant": sk.Orthant(np.array([0.5, -1.0])),
        "orthant_2": sk.Orthant(np.array([1.0, -2.0])),
        "enlarged_region": sk.EnlargedSet(square, 0.25),
        "enlarged_polytope": sk.EnlargedSet(polytope, 0.5),
    }
    spaces = {"euclidean": sk.NormedSpace(2), "max": sk.NormedSpace(2, "max"),
              "p3": sk.NormedSpace(2, "p", 3.0)}
    # {y : y_1 <= -1, -y_1 <= -1}: no point meets both forms
    empty = sk.SublevelRegion((sk.FormGroup(np.array([[1.0, 0.0]]), -1.0),
                               sk.FormGroup(np.array([[-1.0, 0.0]]), -1.0)))
    return [(f"excess-{norm}-{na}-{nb}", partial(sk.excess, space, a, b, 64, seed))
            for norm, space in spaces.items() for na, a in sets.items()
            for nb, b in sets.items()] + [
        (f"excess-{norm}-region-empty", partial(sk.excess, space, square, empty, 64, seed))
        for norm, space in spaces.items()]


def compare(other: Path, seeds: list[int]) -> int:
    def run(src: Path) -> list[str]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "dump", "--src", str(src),
               "--seeds", *map(str, seeds)]
        return subprocess.run(cmd, check=True, capture_output=True, text=True).stdout.splitlines()

    here, there = run(ROOT / "src"), run(other)
    if len(here) != len(there):
        print(f"different job counts: {len(here)} here, {len(there)} in {other}")
        return 1
    differ = [a.split("\t")[0] for a, b in zip(here, there) if a != b]
    for job in differ:
        print(f"differs: {job}")
    print(f"{len(here) - len(differ)} of {len(here)} job outputs equal by float hex")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_dump = sub.add_parser("dump", help="write every job output of the kit in --src")
    p_dump.add_argument("--src", type=Path, default=ROOT / "src")
    p_dump.add_argument("--reverse", action="store_true",
                        help="run each workload's jobs last to first, each under its position")
    p_cmp = sub.add_parser("compare", help="compare this checkout's src/ with OTHER_SRC")
    p_cmp.add_argument("other", type=Path, metavar="OTHER_SRC")
    for p in (p_dump, p_cmp):
        p.add_argument("--seeds", type=int, nargs="+", default=[1])
    args = parser.parse_args(argv)
    if args.command == "dump":
        dump(args.src.resolve(), args.seeds, args.reverse)
        return 0
    return compare(args.other.resolve(), args.seeds)


if __name__ == "__main__":
    sys.exit(main())
