"""Tests of the benchmark itself.

    python3 -m pytest bench/selftest.py -q

Seeded inputs are reproducible, a run makes its planned number of passes,
tracing changes no answer, counts no call made by an answer check and
leaves no wrapper behind, and a wrong expected value is counted as a
failed op.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]

import cliload  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from fields import build_fields  # noqa: E402

# cheap ops of each in-process workload (indices into the spec cycles)
CHEAP = {"deep": [9, 10], "sweep": list(range(16)), "products": [0, 5, 6]}


def _inputs(workload, seed, fields, count=24):
    make = workloads.WORKLOADS[workload][0]
    return json.dumps([make(seed, i, fields) for i in range(count)])


def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path):
    for workload in workloads.WORKLOADS:
        fields = build_fields(workload)
        first = _inputs(workload, 3, fields)
        assert _inputs(workload, 3, fields) == first
        assert _inputs(workload, 4, fields) != first
    fields = build_fields("cli")
    texts = []
    for seed, sub in ((3, "a"), (3, "b"), (4, "c")):
        subst = cliload.write_inputs(tmp_path / sub, seed, fields)
        texts.append(sorted((p.name, p.read_bytes())
                            for p in (tmp_path / sub).iterdir())
                     + [subst["mask"]])
    assert texts[0] == texts[1]
    assert texts[0] != texts[2]


def _targets():
    out = []
    for _, modname, clsname, attr, _ in tracing.LAYERS + tracing.CLI_LAYERS:
        mod = sys.modules.get(modname) or __import__(modname, fromlist=["x"])
        owner = getattr(mod, clsname) if clsname else mod
        out.append((owner, attr, owner.__dict__[attr]))
    return out


def test_traced_answers_equal_untraced_and_wrappers_restored():
    before = _targets()
    namespaces = {name: dict(vars(mod)) for name, mod in sys.modules.items()
                  if name in ("hncodes", "workloads")
                  or name.startswith("hncodes.")}
    for workload, indices in CHEAP.items():
        fields = build_fields(workload)
        step = run.inprocess_step(workload, 5, fields, {})
        plain = [step(i)["digest"] for i in indices]
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_step = run.inprocess_step(workload, 5, fields, {}, tracer)
            traced = [traced_step(i) for i in indices]
        finally:
            tracer.uninstall()
        assert [r["digest"] for r in traced] == plain
        assert not any(r["problems"] for r in traced)
        assert tracer.spans and None not in tracer.spans
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original, (owner, attr)
    for name, saved in namespaces.items():
        current = vars(sys.modules[name])
        assert all(current[k] is v for k, v in saved.items()), name


def test_self_time_subtracts_children():
    spans = [("a", 0.0, 10.0, -1, 0), ("b", 1.0, 4.0, 0, 0),
             ("a", 2.0, 3.0, 1, 0)]
    totals = tracing.layer_totals(spans)
    assert totals["a"] == [2, 8.0]
    assert totals["b"] == [1, 2.0]


def test_wrong_expected_value_counts_as_failure():
    fields = build_fields("deep")
    op = workloads.make_deep(5, 9, fields)
    key = workloads.digest({"field": op["field"], "rows": op["rows"]})
    step = run.inprocess_step("deep", 5, fields, {key: "0" * 64})
    records, _ = run.passes(lambda i, check: step(9 + i, check), 2, 1)
    failed = sum(bool(r["problems"]) for r in records)
    assert failed / len(records) > 0
    assert "recorded digest" in records[0]["problems"][0]


def test_wrong_golden_counts_as_failure(tmp_path):
    case = {"argv": ["weights", "data/binary_9_7.code"],
            "golden": "weights_9_7.json"}
    golden = (ROOT / "tests" / "golden" / case["golden"]).read_bytes()
    assert cliload.check_cli(case, 0, golden, ROOT / "tests" / "golden",
                             {}) == []
    wrong = golden.replace(b'"n": 9', b'"n": 8')
    assert cliload.check_cli(case, 0, wrong, ROOT / "tests" / "golden",
                             {}) != []


def test_runs_make_the_planned_number_of_passes(monkeypatch):
    monkeypatch.setattr(run, "OPS", dict(run.OPS, deep=2))
    args = type("Args", (), {"workload": "deep", "seed": 5,
                             "seconds": 600})()
    info = {}
    records, _ = run.run_untraced(args, info)
    assert info["passes"] == info["passes_planned"] == run.PASSES["deep"]
    assert len(records) == 2 and not any(r["problems"] for r in records)
    calls = []
    _, count = run.passes(lambda i, check: calls.append(i) or
                          {"s": 0.0, "digest": "", "problems": []}, 2, 3,
                          cap_seconds=0)
    assert (count, calls) == (1, [0, 1])


def test_traced_layers_exclude_the_answer_checks(monkeypatch, tmp_path):
    # op 2 of products builds a matroid from a code; its check computes
    # the code's weight hierarchy, which runs the min-rank search
    monkeypatch.setattr(run, "OPS", dict(run.OPS, products=3))
    monkeypatch.setattr(run, "OUT", tmp_path)
    args = type("Args", (), {"workload": "products", "seed": 5})()
    records, metrics = run.run_traced(args, {})
    assert not any(r["problems"] for r in records)
    fields = build_fields("products")
    ops = [workloads.make_products(5, i, fields) for i in range(3)]
    assert ops[2]["kind"] == "matroid_code"

    def min_rank_calls(body):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            body()
        finally:
            tracer.uninstall()
        return tracing.layer_totals(tracer.spans).get(
            "algebra.min_rank", [0])[0]
    answers = []
    alone = min_rank_calls(lambda: answers.extend(
        workloads.run_products(op, fields) for op in ops))
    checks = min_rank_calls(lambda: [workloads.check_products(op, r, {})
                                     for op, r in zip(ops, answers)])
    assert checks > 0
    assert metrics["algebra.min_rank.calls"][0] == alone


def test_traced_run_restores_the_workload_namespace(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OPS", dict(run.OPS, deep=2))
    monkeypatch.setattr(run, "OUT", tmp_path)
    args = type("Args", (), {"workload": "deep", "seed": 5})()
    info = {}
    records, metrics = run.run_traced(args, info)
    assert not any(r["problems"] for r in records)
    assert metrics["hn.filtration.calls"][0] > 0
    assert metrics["algebra.rank_table.calls"][0] > 0
    fn = workloads.canonical_filtration
    assert fn.__module__ == "hncodes.hn" and fn.__name__ == fn.__qualname__
