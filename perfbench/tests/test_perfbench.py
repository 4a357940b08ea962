"""Tests of the benchmark itself: span arithmetic, output checks, input sizes.

    python3 -m pytest perfbench/tests
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_the_time_children_cover():
    # [name, start, end, parent, op id, raised]
    spans = [
        ["op", 0.0, 10.0, None, 1, False],
        ["a", 1.0, 5.0, 0, 1, False],
        ["b", 2.0, 3.0, 1, 1, False],
        ["c", 6.0, 9.0, 0, 1, False],
        ["b", 7.0, 8.0, 3, 1, True],
        # op 2: overlapping children count once, a child past its parent's end is clipped
        ["op", 0.0, 10.0, None, 2, False],
        ["x", 1.0, 4.0, 5, 2, False],
        ["y", 3.0, 6.0, 5, 2, False],
        ["z", 9.0, 12.0, 5, 2, False],
    ]
    out = tracer.self_times(spans)
    assert out[1]["op"] == [3.0, 1, 0]
    assert out[1]["a"] == [3.0, 1, 0]
    assert out[1]["c"] == [2.0, 1, 0]
    assert out[1]["b"] == [2.0, 2, 1]
    assert out[2]["op"][0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_tracer_records_nesting_and_restores_originals():
    import treedisk.dtn
    import treedisk.transmission

    original = treedisk.dtn.compress
    tr = tracer.Tracer()
    sites, absent = tracer.find_sites({"dtn.compress": "treedisk.dtn:compress",
                                       "dtn.gone": "treedisk.dtn:no_such_function"})
    assert absent == ["dtn.gone"]
    owners = {owner.__name__ for owner, _ in sites["dtn.compress"]}
    assert {"treedisk.dtn", "treedisk.transmission"} <= owners
    tr.op_id = 7
    tr.install(sites)
    try:
        root = tr.enter("op")
        with pytest.raises(Exception):
            treedisk.transmission.compress(None, 0)
        tr.leave(root)
    finally:
        tr.uninstall()
    assert treedisk.dtn.compress is original
    assert treedisk.transmission.compress is original
    stats = tracer.self_times(tr.spans)[7]
    assert stats["dtn.compress"][1:] == [1, 1]


def test_dtn_and_calculus_factorizations_are_separate_spans():
    import treedisk  # noqa: F401

    sites, absent = tracer.find_sites()
    if {"calculus.interior_factorization", "dtn.interior_factorization"} & set(absent):
        pytest.skip("a factorization site is gone at this commit")
    calculus = {owner.__name__ for owner, _ in sites["calculus.interior_factorization"]}
    dtn = {owner.__name__ for owner, _ in sites["dtn.interior_factorization"]}
    assert calculus == {"treedisk.calculus"}
    assert dtn == {"treedisk.dtn"}


def _stored(name, seed=0):
    ini = workloads.generate(name, seed)
    return workloads.from_json(run.reference_for(name, seed, ini))


@pytest.mark.parametrize("name,key", [("cli_transmission_n10", "g"),
                                      ("deep_source_n6", "g"),
                                      ("pencil_p3_n5", "pencil")])
def test_a_corrupted_output_fails_its_check(name, key):
    ref = _stored(name)
    good = {key: list(ref[key]), "trace_defect": 0.0, "flux_residual": 0.0,
            "discretization_defect": ref.get("discretization_defect", 0.0), "exit_code": 0}
    assert workloads.check_outputs(name, good, ref) == []
    bad = dict(good, **{key: list(ref[key])})
    bad[key][3] += 1e-7 * max(abs(z) for z in ref[key])
    failures = workloads.check_outputs(name, bad, ref)
    assert failures and "reference" in failures[0]


def test_pencil_bounds_hold_without_a_reference():
    ref = _stored("pencil_p3_n5")
    values = list(ref["pencil"])
    assert workloads.check_outputs("pencil_p3_n5", {"pencil": values}, {}) == []
    values[2] = complex(values[2].real, 1e-6)
    assert workloads.check_outputs("pencil_p3_n5", {"pencil": values}, {})
    values = list(ref["pencil"])
    values[1] = 0.0
    assert workloads.check_outputs("pencil_p3_n5", {"pencil": values}, {})


class _CorruptWork:
    """Stands in for a Workload whose op returns a corrupted g."""

    def __init__(self, name):
        self.name = name
        self.reference = _stored(name)

    def run(self):
        pass

    def outputs(self):
        g = list(self.reference["g"])
        g[0] += 1e-3
        return {"g": g, "trace_defect": 0.0, "flux_residual": 0.0,
                "discretization_defect": self.reference["discretization_defect"]}

    def check(self, out):
        return workloads.check_outputs(self.name, out, self.reference)


def test_a_failed_check_counts_as_a_failed_op():
    _, failures, _ = worker._one_op(_CorruptWork("deep_source_n6"), None, None, 1)
    assert failures
    ops = [_op("warmup", 1.0, worker.CAL_REF_S), _op("untraced", 1.0, worker.CAL_REF_S, failures)]
    summary = run.summarize("deep_source_n6", 0, [""], 1, [_result(ops)])
    assert (summary["attempted"], summary["failed"]) == (2, 1)
    assert run.report(summary, 0)["correct"] is False


def _op(kind, seconds, cal, failures=()):
    return {"kind": kind, "seconds": seconds, "cal": cal, "failures": list(failures),
            "bytes_written": 0}


def _result(ops, setup_s=1.0):
    return {"ops": ops, "setup_cal": ops[0]["cal"], "setup_s": setup_s, "loop_s": 1.0,
            "layers": {}, "counters": {}, "absent": [], "peak_rss_mb": 1.0,
            "peak_rss_end_mb": 1.0, "defects": {}, "record": {}}


def test_times_are_scaled_by_the_calibration_kernel():
    ref = worker.CAL_REF_S
    # the host runs at half speed for the second process: kernel and ops take twice as long
    fast = [_op("warmup", 3.0, ref), _op("untraced", 1.0, ref), _op("untraced", 1.2, ref)]
    slow = [_op("warmup", 6.0, 2 * ref), _op("untraced", 2.0, 2 * ref),
            _op("untraced", 2.2, 2.2 * ref)]
    summary = run.summarize("deep_source_n6", 0, [""], 1,
                            [_result(fast, 4.0), _result(slow, 8.0), _result(fast, 4.0)])
    assert summary["end_to_end"]["op_s"] == pytest.approx(1.0)  # of 1, 1.2, 1, 1, 1, 1.2
    assert summary["end_to_end"]["setup_s"] == pytest.approx(4.0)
    assert summary["wall"]["op_s"] == pytest.approx(1.2)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seeds_change_values_not_problem_sizes(name):
    from treedisk.config import parse_text

    def sizes(seed):
        cfg = parse_text(workloads.generate(name, seed))
        keys = sorted(k.rsplit(".", 1)[0] if ".profile." in k else k for k in cfg.values)
        return keys, [cfg.get(k) for k in ("tree.p", "tree.N1", "interface.N",
                                           "transmission.source_depth")]

    assert workloads.generate(name, 1) != workloads.generate(name, 2)
    assert sizes(1) == sizes(2)
    assert workloads.generate(name, 5) == workloads.generate(name, 5)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_a_run_cycles_through_distinct_inputs(name):
    inis = [workloads.generate(name, s) for s in workloads.input_seeds(3)]
    assert len(set(inis)) == workloads.INPUTS_PER_RUN


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_input_of_a_shipped_seed_has_a_reference(name):
    for seed in range(workloads.SHIPPED_SEEDS):
        for s in workloads.input_seeds(seed):
            assert run.reference_for(name, s, workloads.generate(name, s)) is not None, (seed, s)
